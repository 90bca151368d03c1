package reporter

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"slices"
	"time"

	"xymon/internal/stream"
	"xymon/internal/xmldom"
)

// The Reporter's durable state is the part of the paper's delivery
// semantics a restart must not erase: the notification stream gathered
// since the last report (the paper's Reporter explicitly accumulates it
// between evaluations), and every report that was built but whose
// delivery was not yet acknowledged. Both journal their mutations into a
// stream.Log as they happen:
//
//	notif  — a notification entered a subscription's buffer
//	fired  — a report was built; its buffer emptied into it. One stream
//	         batch per build, a record per recipient: the fired records
//	         are the change-stream, and a report's id is its offset
//	done   — the sink accepted the report
//	dead   — the report exhausted its retry budget (dead-lettered)
//	lost   — delivery failed with retrying disabled; intentionally dropped
//	redrive — an operator moved a dead letter back onto the retry queue
//
// The hot records (notif, fired, done) are group-committed: each is
// written to the log where it happens — under the lock that orders it —
// and made durable by a commit barrier per document, not an fsync per
// record (see deliver). The cold ones (dead, lost, redrive) commit on
// their own. Every record but fired is a JSON owner frame.
//
// Recovery replays checkpoint + tail: buffered notifications come back
// flagged pending (the next Tick reports them — re-evaluating the exact
// when clause could only delay them further), and every report that
// fired without a done/dead/lost record re-enters the retry queue. A
// crash between the sink accepting a report and the done record landing
// therefore redelivers it: that duplicate is the at-least-once contract,
// never a loss.
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
}

// walSnapshot is the checkpoint payload: the durable state at the
// checkpoint's boundary, replacing every journal record before it.
type walSnapshot struct {
	Buffers     map[string][]walRecord `json:"buffers,omitempty"`
	Outstanding []walRecord            `json:"outstanding,omitempty"`
	Dead        []walRecord            `json:"dead,omitempty"`
	Evicted     uint64                 `json:"evicted,omitempty"`
}

// WithWAL journals the Reporter's durable state into l, whose stream
// records are then the Reporter's fired reports. The caller opens the
// log, calls Recover once registration is done, and closes it after the
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
	enc, err := json.Marshal(rec)
	if err == nil {
		err = r.log.Write(enc)
	}
	if err != nil {
		r.walErrors.Add(1)
	}
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

// JournalErrors counts journal writes and commit barriers that failed
// (state kept in memory only — durability degraded, operation continued).
func (r *Reporter) JournalErrors() uint64 { return r.walErrors.Load() }

// noteFired writes the copies of one built report — the origin's and
// its followers' — to the journal as one stream batch, numbers each by
// the offset the write assigns, and tracks them as outstanding until a
// delivery outcome lands. Called with the stripe lock held; rt.mu nests
// inside it (stripe → rt.mu → log everywhere), so the batch follows
// every notification the report consumed in the log, and offsets follow
// log order. The caller commits before the reports leave the Reporter.
// It reports false, counted in JournalErrors, when the write failed and
// the reports must not leave at all.
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

// resolveLocked journals a terminal non-delivery outcome ("dead" or
// "lost") for an outstanding report. Caller holds rt.mu.
func (r *Reporter) resolveLocked(rep *Report, t, reason string, attempts int, now time.Time) {
	if r.log == nil {
		return
	}
	rec := walRecord{
		T: t, ID: rep.id, Sub: rep.Subscription, Count: rep.Notifications,
		Reason: reason, Attempts: attempts, Time: now, XML: rep.xml,
	}
	r.journal(rec)
	delete(r.retry.outstanding, rep.id)
}

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

// Recover rebuilds the Reporter's durable state from its WAL. Call it
// after every subscription is Registered (recovery drops the buffers of
// subscriptions that no longer exist) and before the first Notify or
// Tick. Recovered buffers are marked pending, so the next Tick reports
// them; recovered outstanding reports re-enter the retry queue due
// immediately.
func (r *Reporter) Recover() error {
	if r.log == nil {
		return nil
	}
	buffers := make(map[string][]walRecord)
	outstanding := make(map[uint64]walRecord)
	var order []uint64
	var dead []walRecord
	var evicted uint64
	err := r.log.Recover(
		func(snap []byte) error {
			var s walSnapshot
			if err := json.Unmarshal(snap, &s); err != nil {
				return fmt.Errorf("reporter: corrupt checkpoint: %w", err)
			}
			maps.Copy(buffers, s.Buffers)
			for _, rec := range s.Outstanding {
				outstanding[rec.ID] = rec
				order = append(order, rec.ID)
			}
			dead = append(dead, s.Dead...)
			evicted = s.Evicted
			return nil
		},
		func(payload []byte) error {
			var rec walRecord
			if err := json.Unmarshal(payload, &rec); err != nil {
				return fmt.Errorf("reporter: corrupt journal record: %w", err)
			}
			switch rec.T {
			case "notif":
				buffers[rec.Sub] = append(buffers[rec.Sub], rec)
			case "done", "lost":
				delete(outstanding, rec.ID)
			case "dead":
				delete(outstanding, rec.ID)
				dead = append(dead, rec)
			case "redrive":
				// A dead letter moved back to the retry queue; the fresh
				// attempt budget a live Redrive grants is restored too.
				for i, d := range dead {
					if d.ID == rec.ID {
						d.T = "fired"
						d.Attempts = 0
						d.Reason = ""
						outstanding[rec.ID] = d
						order = append(order, rec.ID)
						dead = append(dead[:i], dead[i+1:]...)
						break
					}
				}
			}
			return nil
		},
		func(rec stream.Record) error {
			outstanding[rec.Offset] = walRecord{T: "fired", ID: rec.Offset, Sub: rec.Subscription, XML: rec.XML, Time: rec.Time, Count: rec.Notifications}
			order = append(order, rec.Offset)
			// Building the report consumed the origin's buffer.
			delete(buffers, cmp.Or(rec.Origin, rec.Subscription))
			return nil
		},
	)
	if err != nil {
		return err
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
			clear(st.labelCount)
			for _, rec := range recs {
				st.buffer = append(st.buffer, buffered{
					label: rec.Label, elem: parseReportDoc(rec.XML), time: rec.Time,
				})
				if st.labelCount != nil {
					st.labelCount[rec.Label]++
				}
			}
			// The when clause held (or may have held) before the crash;
			// pending makes the next Tick report rather than re-derive.
			st.pending = true
		}
		s.mu.Unlock()
	}

	r.deadLettered.Add(uint64(len(dead)))
	rt := &r.retry
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for _, rec := range dead {
		rt.dead = append(rt.dead, DeadLetter{
			Report: rec.report(), Attempts: rec.Attempts, Reason: rec.Reason, Time: rec.Time,
		})
	}
	r.evictDeadLocked()
	r.evicted.Add(evicted)
	queued := make(map[uint64]bool, len(order))
	for _, id := range order {
		rec, ok := outstanding[id]
		if !ok || queued[id] {
			// Resolved, or already queued once (a report can enter order
			// twice when a dead letter was redriven in the same tail).
			continue
		}
		queued[id] = true
		rt.outstanding[id] = rec
		rt.queue = append(rt.queue, &retryEntry{rep: rec.report(), attempts: rec.Attempts, nextTry: now})
	}
	return nil
}

// Checkpoint snapshots the durable state and compacts the journal it
// covers, keeping the segments the change-stream's retention policy
// still owes a consumer. It locks every stripe plus the retry state, so
// the snapshot is a consistent cut: no notification, report, or outcome
// can land between the snapshot and the checkpoint boundary. A consumer's
// unreadable cursor makes it keep more and return an error afterwards.
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

	snap := walSnapshot{
		Buffers: make(map[string][]walRecord),
		Evicted: r.evicted.Load(),
	}
	for i := range r.stripes {
		for sub, st := range r.stripes[i].subs {
			if len(st.buffer) == 0 {
				continue
			}
			recs := make([]walRecord, 0, len(st.buffer))
			for _, n := range st.buffer {
				rec := walRecord{T: "notif", Sub: sub, Label: n.label, Time: n.time}
				if n.elem != nil {
					rec.XML = n.elem.XML()
				}
				recs = append(recs, rec)
			}
			snap.Buffers[sub] = recs
		}
	}
	snap.Outstanding = slices.SortedFunc(maps.Values(rt.outstanding), func(a, b walRecord) int {
		return cmp.Compare(a.ID, b.ID)
	})
	for _, d := range rt.dead {
		rec := walRecord{
			T: "dead", ID: d.Report.id, Sub: d.Report.Subscription,
			Time: d.Report.Time, Count: d.Report.Notifications,
			Attempts: d.Attempts, Reason: d.Reason, XML: d.Report.xml,
		}
		snap.Dead = append(snap.Dead, rec)
	}
	// All stripe locks and rt.mu are held across the checkpoint: nothing
	// can append between the snapshot above and the boundary rotation.
	//xyvet:ignore lockcheck
	_, err := r.log.Checkpoint(func(w io.Writer) error {
		return json.NewEncoder(w).Encode(&snap)
	})
	return err
}
