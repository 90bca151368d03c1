package reporter

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"maps"
	"slices"
	"time"

	"xymon/internal/stream"
	"xymon/internal/xmldom"
)

// The Reporter's durable state is the part of the paper's delivery
// semantics a restart must not erase: the subscription base the buffers
// belong to (the paper's Subscription Manager keeps it in one store), the
// notification stream gathered since the last report (the paper's
// Reporter explicitly accumulates it between evaluations), and every
// report that was built but whose delivery was not yet acknowledged. All
// journal their mutations into a stream.Log as they happen:
//
//	sub    — a subscription joined the base; it carries the source text
//	unsub  — a subscription left the base; its buffer and marks go too
//	notif  — a notification entered a subscription's buffer; a
//	         continuous query's result also marks the query as
//	         evaluated at its time
//	mark   — a continuous query evaluated and its delta was empty
//	fired  — a report was built; its buffer emptied into it. One stream
//	         batch per build, a record per recipient: the fired records
//	         are the change-stream, and a report's id is its offset
//	done   — the sink accepted the report
//	dead   — the report exhausted its retry budget (dead-lettered); its
//	         time is the report's build, died when it was lettered
//	lost   — written by earlier builds when retrying was disabled; still
//	         read back, as done, since their journals may hold it
//	redrive — an operator moved a dead letter back onto the retry queue
//	evicted — the number of dead letters the cap evicted so far; only a
//	         checkpoint holds one
//
// The hot records (notif, mark, fired, done) are group-committed: each is
// written to the log where it happens — under the lock that orders it —
// and made durable by a commit barrier per document, not an fsync per
// record (see deliver). The cold ones (sub, unsub, dead, redrive) commit
// on their own. Every record but fired is a JSON owner frame.
//
// A checkpoint is these records compacted: the base's sub records in
// registration order, evicted, the outstanding reports as fired records
// (JSON, like the rest), the dead letters, then each subscription's marks
// and buffer — so recovery replays checkpoint and tail through one
// function.
//
// Recovery replays checkpoint + tail in log order and hands the base it
// ends with to the caller, in registration order, before it restores
// buffers and marks: buffered notifications come back
// flagged pending (the next Tick reports them — re-evaluating the exact
// when clause could only delay them further), and every report that
// fired without a done or dead record re-enters the retry queue. A
// crash between the sink accepting a report and the done record landing
// therefore redelivers it: that duplicate is the at-least-once contract,
// never a loss. The latest mark of each continuous query comes back too,
// for the Trigger Engine to resume its schedule from (Evaluated).
type walRecord struct {
	T        string    `json:"t"`
	ID       uint64    `json:"id,omitempty"`
	Sub      string    `json:"sub,omitempty"`
	Label    string    `json:"label,omitempty"`
	XML      string    `json:"xml,omitempty"`
	Time     time.Time `json:"time,omitempty"`
	Count    int       `json:"count,omitempty"`
	Attempts int       `json:"attempts,omitempty"`
	Reason   string    `json:"reason,omitempty"`
	Mark     bool      `json:"mark,omitempty"`
	Src      string    `json:"src,omitempty"`
	// Died is a dead letter's death, Unix ns (a time.Time would never be
	// omitted from the other records).
	Died int64 `json:"died,omitempty"`
}

// WithWAL journals the Reporter's durable state into l, whose stream
// records are then the Reporter's fired reports. The caller opens the
// log, calls Recover — which hands it the journaled subscription base
// to register — before the first notification, and closes it after the
// Reporter stops; Checkpoint applies l's retention.
func WithWAL(l *stream.Log) Option {
	return func(r *Reporter) { r.log = l }
}

// journalWrite writes one record to the journal in log order without
// making it durable; the caller's next commit covers it. Journaling
// failures degrade (the system keeps running on its in-memory state) but
// are counted; a failed fired write holds its report back (buildLocked).
func (r *Reporter) journalWrite(rec walRecord) {
	if r.log == nil {
		return
	}
	if err := r.write(rec); err != nil {
		r.walErrors.Add(1)
	}
}

// write writes one record to the journal in log order; the caller
// decides what its failure costs.
func (r *Reporter) write(rec walRecord) error {
	enc, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	return r.log.Write(enc)
}

// journal durably appends one record — the cold ones, which commit on
// their own.
func (r *Reporter) journal(rec walRecord) {
	r.journalWrite(rec)
	r.commit()
}

// commit is the journal's barrier: one fsync covering every record
// written so far, whoever wrote it; a no-op when nothing is unsynced. A
// failed barrier degrades like a failed append — counted, operation
// continues.
func (r *Reporter) commit() {
	if r.log == nil {
		return
	}
	if err := r.log.Sync(); err != nil {
		r.walErrors.Add(1)
	}
}

// Persist journals the registration of st: a sub record carrying its
// source text, committed with one fsync. From then on st is in the
// journaled base — Checkpoint snapshots it, Unregister journals its
// removal. It fails whole: when the barrier fails after the record was
// written, an unsub record follows it, so the journal does not keep a
// subscription whose caller was told it failed. A no-op without a WAL.
func (r *Reporter) Persist(st *Sub, src string) error {
	if r.log == nil {
		return nil
	}
	s := &r.stripes[st.stripe]
	s.mu.Lock()
	// Under the stripe lock: a Checkpoint holding them all sees the record
	// and st's place in the base together, or neither.
	err := r.write(walRecord{T: "sub", Sub: st.name, Src: src})
	if err == nil {
		st.src, st.seq = src, r.baseSeq.Add(1)
	}
	s.mu.Unlock()
	if err != nil {
		return err
	}
	if err = r.log.Sync(); err != nil {
		s.mu.Lock()
		r.journalWrite(walRecord{T: "unsub", Sub: st.name})
		st.src, st.seq = "", 0
		s.mu.Unlock()
	}
	return err
}

// noteFired writes the copies of one built report — the origin's and
// its followers' — to the journal as one stream batch, numbers each by
// the offset the write assigns, and tracks them as outstanding until a
// delivery outcome lands. Called with the stripe lock held; rt.mu nests
// inside it (stripe → rt.mu → log everywhere), so the batch follows
// every notification the report consumed in the log, and offsets follow
// log order. The caller commits before the reports leave the Reporter.
// It reports false, counted in Stats.JournalErrors, when the write failed
// and the reports must not leave at all.
func (r *Reporter) noteFired(reps []*Report, origin string) bool {
	if r.log == nil {
		return true
	}
	recs := make([]stream.Record, len(reps))
	for i, rep := range reps {
		recs[i] = stream.Record{Subscription: rep.Subscription, Time: rep.Time, Notifications: rep.Notifications, XML: rep.xml}
		if i > 0 {
			recs[i].Origin = origin
		}
	}
	rt := &r.retry
	rt.mu.Lock()
	defer rt.mu.Unlock()
	base, err := r.log.Append(recs)
	if err != nil {
		r.walErrors.Add(1)
		return false
	}
	for i, rep := range reps {
		rep.id = base + uint64(i)
		rt.outstanding[rep.id] = rep.outstanding()
	}
	return true
}

// outstanding is how an undelivered journaled report is checkpointed.
func (rep *Report) outstanding() walRecord {
	return walRecord{T: "fired", ID: rep.id, Sub: rep.Subscription, XML: rep.xml, Time: rep.Time, Count: rep.Notifications}
}

// report rebuilds the journaled report a fired or dead record holds.
func (rec walRecord) report() *Report {
	return &Report{
		Subscription: rec.Sub, Doc: parseReportDoc(rec.XML), xml: rec.XML,
		Time: rec.Time, Notifications: rec.Count, id: rec.ID,
	}
}

// noteDelivered resolves an outstanding report. Writing and removal
// happen under rt.mu so a concurrent Checkpoint sees either both or
// neither — either the done record survives in the tail, or the report
// is already gone from the snapshot. The caller commits once its
// Deliver loop is over; until then a crash redelivers (at-least-once).
func (r *Reporter) noteDelivered(rep *Report) {
	if r.log == nil {
		return
	}
	rt := &r.retry
	rt.mu.Lock()
	r.journalWrite(walRecord{T: "done", ID: rep.id})
	delete(rt.outstanding, rep.id)
	rt.mu.Unlock()
}

// resolveLocked journals the dead record of a report that exhausted its
// attempts. Caller holds rt.mu.
func (r *Reporter) resolveLocked(rep *Report, reason string, attempts int, now time.Time) {
	if r.log == nil {
		return
	}
	r.journal(deadRecord(rep, reason, attempts, now))
	delete(r.retry.outstanding, rep.id)
}

// deadRecord is how a dead letter is journaled.
func deadRecord(rep *Report, reason string, attempts int, died time.Time) walRecord {
	return walRecord{
		T: "dead", ID: rep.id, Sub: rep.Subscription, Count: rep.Notifications,
		Reason: reason, Attempts: attempts, Time: rep.Time, Died: died.UnixNano(), XML: rep.xml,
	}
}

// byID orders records by ID: reports by offset, the base by registration.
func byID(a, b walRecord) int { return cmp.Compare(a.ID, b.ID) }

// parseReportDoc rebuilds a report document from its journaled XML.
func parseReportDoc(s string) *xmldom.Node {
	if s == "" {
		return nil
	}
	d, err := xmldom.ParseString(s)
	if err != nil || d == nil {
		return nil
	}
	return d.Root
}

// Recover rebuilds the Reporter's durable state from its WAL, replaying
// it in log order. It hands the subscription base the journal ends with
// to register, one subscription at a time in registration order and with
// no lock of the Reporter's held, and only then restores the buffers and
// marks of the registered subscriptions (a subscription registered
// before Recover gets its own back too). A nil register registers
// nothing. Call it before the first Notify or Tick. Recovered buffers are
// marked pending, so the next Tick reports them; recovered outstanding
// reports re-enter the retry queue due immediately, in id order.
func (r *Reporter) Recover(register func(name, src string) error) error {
	if r.log == nil {
		return nil
	}
	// The base by name; a record's ID is its place in registration order.
	base := make(map[string]walRecord)
	var joined uint64
	buffers := make(map[string][]walRecord)
	marks := make(map[string]map[string]time.Time)
	outstanding := make(map[uint64]walRecord)
	var dead []walRecord
	var evicted uint64
	replay := func(rec walRecord) error {
		if rec.Mark {
			// Later records win: the journal is in evaluation order.
			if marks[rec.Sub] == nil {
				marks[rec.Sub] = make(map[string]time.Time)
			}
			marks[rec.Sub][rec.Label] = rec.Time
		}
		switch rec.T {
		case "sub":
			rec.ID, joined = joined, joined+1
			base[rec.Sub] = rec
		case "unsub":
			// What was staged for the name belonged to the subscription
			// that left; one subscribed again under it starts empty.
			delete(base, rec.Sub)
			delete(buffers, rec.Sub)
			delete(marks, rec.Sub)
		case "notif":
			buffers[rec.Sub] = append(buffers[rec.Sub], rec)
		case "fired":
			outstanding[rec.ID] = rec
		case "done", "lost":
			delete(outstanding, rec.ID)
		case "dead":
			delete(outstanding, rec.ID)
			dead = append(dead, rec)
			// The cap evicts as it did live, before a redrive could
			// pick a letter it evicted.
			if rt := &r.retry; rt.maxDead > 0 && len(dead) > rt.maxDead {
				dead, evicted = dead[1:], evicted+1
			}
		case "evicted":
			evicted = uint64(rec.Count)
		case "mark":
			// The mark above is the whole record.
		case "redrive":
			// A dead letter moved back to the retry queue; the fresh
			// attempt budget a live Redrive grants is restored too.
			for i, d := range dead {
				if d.ID == rec.ID {
					d.T, d.Attempts, d.Reason, d.Died = "fired", 0, "", 0
					outstanding[rec.ID] = d
					dead = slices.Delete(dead, i, i+1)
					break
				}
			}
		default:
			// A kind this build does not know may carry state it
			// cannot restore: refuse the journal, do not skip it.
			return fmt.Errorf("reporter: journal record of unknown kind %q", rec.T)
		}
		return nil
	}
	err := r.log.Recover(
		func(payload []byte) error {
			var rec walRecord
			if err := json.Unmarshal(payload, &rec); err != nil {
				return fmt.Errorf("reporter: corrupt journal record: %w", err)
			}
			return replay(rec)
		},
		func(rec stream.Record) error {
			// Building the report consumed the origin's buffer.
			delete(buffers, cmp.Or(rec.Origin, rec.Subscription))
			return replay(walRecord{T: "fired", ID: rec.Offset, Sub: rec.Subscription, XML: rec.XML, Time: rec.Time, Count: rec.Notifications})
		},
	)
	if err != nil {
		return err
	}

	for _, rec := range slices.SortedFunc(maps.Values(base), byID) {
		if register != nil {
			if err := register(rec.Sub, rec.Src); err != nil {
				return err
			}
		}
		s := r.stripeFor(rec.Sub)
		s.mu.Lock()
		if st := s.subs[rec.Sub]; st != nil {
			st.src, st.seq = rec.Src, r.baseSeq.Add(1)
		}
		s.mu.Unlock()
	}
	now := r.clock()
	for sub, recs := range buffers {
		if len(recs) == 0 {
			continue
		}
		s := r.stripeFor(sub)
		s.mu.Lock()
		if st, ok := s.subs[sub]; ok {
			st.buffer = st.buffer[:0]
			for i := range st.tagTerms {
				st.tagTerms[i].n = 0
			}
			for _, rec := range recs {
				q := s.intern(rec.Label)
				st.buffer = append(st.buffer, buffered{elem: parseReportDoc(rec.XML), at: rec.Time.UnixNano(), q: q})
				st.countLabel(q)
			}
			// The when clause held (or may have held) before the crash;
			// pending makes the next Tick report rather than re-derive.
			st.pending = true
			s.arm(st)
		}
		s.mu.Unlock()
	}
	for sub, m := range marks {
		s := r.stripeFor(sub)
		s.mu.Lock()
		if st, ok := s.subs[sub]; ok {
			st.marks = m
		}
		s.mu.Unlock()
	}

	rt := &r.retry
	rt.mu.Lock()
	defer rt.mu.Unlock()
	// The queues are restored, not appended to: recovering twice must not
	// queue a report or a letter twice.
	rt.queue, rt.dead = nil, nil
	clear(rt.outstanding)
	r.deadLettered.Store(uint64(len(dead)))
	r.evicted.Store(evicted)
	for _, rec := range dead {
		died := rec.Time // an earlier build journaled the death as time
		if rec.Died != 0 {
			died = time.Unix(0, rec.Died)
		}
		rt.dead = append(rt.dead, DeadLetter{
			Report: rec.report(), Attempts: rec.Attempts, Reason: rec.Reason, Time: died,
		})
	}
	for _, id := range slices.Sorted(maps.Keys(outstanding)) {
		rec := outstanding[id]
		rt.outstanding[id] = rec
		rt.queue = append(rt.queue, &retryEntry{rep: rec.report(), attempts: rec.Attempts, nextTry: now})
	}
	return nil
}

// Checkpoint writes the durable state as the records that restore it —
// the journaled base in registration order among them — and compacts
// the journal it covers, keeping the segments the change-stream's
// retention policy still owes a consumer. It locks every stripe plus the
// retry state, so the records are a consistent cut: no subscription,
// notification, report, or outcome can land between them and the
// checkpoint boundary. A consumer's unreadable cursor makes it keep more
// and return an error afterwards.
func (r *Reporter) Checkpoint() error {
	if r.log == nil {
		return nil
	}
	for i := range r.stripes {
		r.stripes[i].mu.Lock()
		defer r.stripes[i].mu.Unlock()
	}
	rt := &r.retry
	rt.mu.Lock()
	defer rt.mu.Unlock()

	// All stripe locks and rt.mu are held across the checkpoint: nothing
	// can append between the records below and the boundary rotation.
	_, err := r.log.Checkpoint(func(emit func([]byte) error) error {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		var err error
		put := func(recs ...walRecord) {
			for i := 0; i < len(recs) && err == nil; i++ {
				buf.Reset()
				if err = enc.Encode(&recs[i]); err == nil {
					err = emit(buf.Bytes())
				}
			}
		}
		var base []walRecord
		for i := range r.stripes {
			for sub, st := range r.stripes[i].subs {
				if st.seq != 0 {
					base = append(base, walRecord{T: "sub", ID: st.seq, Sub: sub, Src: st.src})
				}
			}
		}
		slices.SortFunc(base, byID)
		put(base...)
		put(walRecord{T: "evicted", Count: int(r.evicted.Load())})
		put(slices.SortedFunc(maps.Values(rt.outstanding), byID)...)
		for _, d := range rt.dead {
			put(deadRecord(d.Report, d.Reason, d.Attempts, d.Time))
		}
		for i := range r.stripes {
			s := &r.stripes[i]
			for sub, st := range s.subs {
				for label, t := range st.marks {
					put(walRecord{T: "mark", Sub: sub, Label: label, Time: t, Mark: true})
				}
				for _, n := range st.buffer {
					rec := walRecord{T: "notif", Sub: sub, Label: s.label[n.q], Time: time.Unix(0, n.at)}
					if n.elem != nil {
						rec.XML = n.elem.XML()
					}
					put(rec)
				}
			}
		}
		return err
	})
	return err
}
