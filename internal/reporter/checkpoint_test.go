package reporter

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"xymon/internal/stream"
	"xymon/internal/sublang"
	"xymon/internal/xmldom"
)

// TestDeadLetterTimesSurviveRecovery: a dead letter keeps both its times
// — its report's build and its death — whether recovery replays the dead
// record from the tail or from a checkpoint.
func TestDeadLetterTimesSurviveRecovery(t *testing.T) {
	for _, checkpoint := range []bool{false, true} {
		name := "tail"
		if checkpoint {
			name = "checkpoint"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			sink := &flakySink{failN: 1 << 30}
			r1, now := durableRig(t, dir, sink, WithRetryPolicy(2, time.Hour, time.Hour))
			r1.Register("S", nil) // immediate
			built := *now
			r1.Notify(Notification{Subscription: "S", Label: "l", Element: elem("payload")})
			*now = now.Add(time.Hour)
			died := *now
			r1.Tick() // the second attempt fails: dead-lettered
			live := r1.DeadLetters()
			if len(live) != 1 || !live[0].Report.Time.Equal(built) || !live[0].Time.Equal(died) {
				t.Fatalf("live dead letters %+v, want one built %v, died %v", live, built, died)
			}
			if checkpoint {
				if err := r1.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}

			r2, _ := durableRig(t, dir, &flakySink{}, WithRetryPolicy(2, time.Hour, time.Hour))
			r2.Register("S", nil)
			if err := r2.Recover(nil); err != nil {
				t.Fatal(err)
			}
			got := r2.DeadLetters()
			if len(got) != 1 {
				t.Fatalf("recovered %d dead letters, want 1", len(got))
			}
			if d := got[0]; !d.Report.Time.Equal(built) || !d.Time.Equal(died) || d.Attempts != 2 || d.Reason != "spool full" {
				t.Fatalf("recovered letter built %v, died %v (%d attempts, %q); live it was built %v, died %v",
					d.Report.Time, d.Time, d.Attempts, d.Reason, built, died)
			}
		})
	}
}

// durableState is what a recovery restores, in comparable form.
type durableState struct {
	Base    []string
	Buffers map[string][]string // label, time, XML per buffered notification
	Marks   map[string]map[string]int64
	Queue   []string // id and attempts per queued report
	Dead    []string // id, build and death times, reason and attempts
	Evicted uint64
}

// recoveredState reopens the journal in dir, recovers a fresh Reporter
// from it, registering each subscription of the base with specs[name],
// and reads back what it restored.
func recoveredState(t *testing.T, dir string, specs map[string]*sublang.ReportSpec, opts ...Option) durableState {
	t.Helper()
	l, err := stream.Open(dir, stream.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	r := New(nil, append(opts, WithWAL(l))...)
	var st durableState
	if err := r.Recover(func(name, _ string) error {
		st.Base = append(st.Base, name)
		r.Register(name, specs[name])
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	st.Buffers = make(map[string][]string)
	st.Marks = make(map[string]map[string]int64)
	for i := range r.stripes {
		s := &r.stripes[i]
		s.mu.Lock()
		for name, sub := range s.subs {
			for _, n := range sub.buffer {
				xml := ""
				if n.elem != nil {
					xml = n.elem.XML()
				}
				st.Buffers[name] = append(st.Buffers[name], fmt.Sprintf("%s %d %s", s.label[n.q], n.at, xml))
			}
			for label, at := range sub.marks {
				if st.Marks[name] == nil {
					st.Marks[name] = make(map[string]int64)
				}
				st.Marks[name][label] = at.UnixNano()
			}
		}
		s.mu.Unlock()
	}
	r.retry.mu.Lock()
	for _, e := range r.retry.queue {
		st.Queue = append(st.Queue, fmt.Sprintf("%d %d", e.rep.id, e.attempts))
	}
	r.retry.mu.Unlock()
	for _, d := range r.DeadLetters() {
		st.Dead = append(st.Dead, fmt.Sprintf("%d %d %d %q %d", d.ID(), d.Report.Time.UnixNano(), d.Time.UnixNano(), d.Reason, d.Attempts))
	}
	st.Evicted = r.Stats().Evicted
	return st
}

// TestCheckpointMatchesTail drives two journaled Reporters through the
// same random history — subscriptions persisted and unregistered,
// labelled and mark notifications, count and immediate reports, a sink
// that fails some deliveries, redrives, clock steps and ticks — and
// checkpoints one of them at a random step. Recovering from checkpoint
// plus tail must restore exactly what recovering from the whole tail
// does.
func TestCheckpointMatchesTail(t *testing.T) {
	seeds := 32
	if testing.Short() {
		seeds = 8
	}
	var dead, evicted, queued, buffered int
	for seed := range seeds {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			st := checkpointDifferential(t, int64(seed))
			dead += len(st.Dead)
			evicted += int(st.Evicted)
			queued += len(st.Queue)
			buffered += len(st.Buffers)
		})
	}
	if dead == 0 || evicted == 0 || queued == 0 || buffered == 0 {
		t.Fatalf("the histories recovered %d dead letters, %d evicted, %d queued reports, %d buffers: some state went unexercised",
			dead, evicted, queued, buffered)
	}
}

func checkpointDifferential(t *testing.T, seed int64) durableState {
	rng := rand.New(rand.NewSource(seed))
	now := time.Date(2001, 5, 21, 9, 0, 0, 0, time.UTC)
	failing := false
	opts := []Option{
		WithClock(func() time.Time { return now }),
		WithRetryPolicy(2, 10*time.Minute, time.Hour),
		WithDeadLetterCap(3),
	}
	sink := DeliveryFunc(func(*Report) error {
		if failing {
			return errors.New("sink down")
		}
		return nil
	})
	type side struct {
		dir string
		log *stream.Log
		r   *Reporter
	}
	var sides [2]*side // plain, checkpointed
	for i := range sides {
		sd := &side{dir: t.TempDir()}
		l, err := stream.Open(sd.dir, stream.Options{SegmentBytes: 1024})
		if err != nil {
			t.Fatal(err)
		}
		sd.log, sd.r = l, New(sink, append(opts, WithWAL(l))...)
		sides[i] = sd
	}
	names := []string{"S0", "S1", "S2", "S3", "S4", "S5"}
	specs := make(map[string]*sublang.ReportSpec)
	subscribed := make(map[string]bool)
	const steps = 300
	at := rng.Intn(steps)
	seq := 0
	for step := range steps {
		if step == at {
			if err := sides[1].r.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		failing = rng.Intn(2) == 0
		name := names[rng.Intn(len(names))]
		label := string(rune('a' + rng.Intn(3)))
		seq++
		var el *xmldom.Node
		if rng.Intn(4) > 0 {
			el = xmldom.Element(label).WithAttr("n", fmt.Sprint(seq))
		}
		switch p := rng.Intn(100); {
		case p < 15:
			if subscribed[name] {
				for _, sd := range sides {
					if err := sd.r.Unregister(name); err != nil {
						t.Fatal(err)
					}
				}
				delete(subscribed, name)
				break
			}
			specs[name] = nil // immediate
			if rng.Intn(3) > 0 {
				specs[name] = reportEvery(3 + rng.Intn(6))
			}
			for _, sd := range sides {
				if err := sd.r.Persist(sd.r.Register(name, specs[name]), "subscription "+name); err != nil {
					t.Fatal(err)
				}
			}
			subscribed[name] = true
		case p < 50:
			for _, sd := range sides {
				sd.r.Notify(Notification{Subscription: name, Label: label, Element: el, Time: now})
			}
		case p < 60:
			query := "q" + label
			for _, sd := range sides {
				sd.r.Notify(Notification{Subscription: name, Label: query, Element: el, Time: now, Mark: true})
			}
		case p < 75:
			now = now.Add([]time.Duration{time.Second, 10 * time.Minute, time.Hour}[rng.Intn(3)])
		case p < 96:
			for _, sd := range sides {
				sd.r.Tick()
			}
		default:
			// The oldest letter: both sides number reports alike.
			for _, sd := range sides {
				if d := sd.r.DeadLetters(); len(d) > 0 {
					sd.r.Redrive(d[0].ID())
				}
			}
		}
	}
	for _, sd := range sides {
		if err := sd.log.Close(); err != nil {
			t.Fatal(err)
		}
	}
	plain := recoveredState(t, sides[0].dir, specs, opts...)
	checkpointed := recoveredState(t, sides[1].dir, specs, opts...)
	if !reflect.DeepEqual(plain, checkpointed) {
		t.Fatalf("checkpoint at step %d: recovered from the tail\n%+v\nfrom checkpoint and tail\n%+v", at, plain, checkpointed)
	}
	if got, want := slices.Sorted(slices.Values(plain.Base)), slices.Sorted(maps.Keys(subscribed)); !slices.Equal(got, want) {
		t.Fatalf("recovered base %v, subscribed %v", got, want)
	}
	return plain
}
