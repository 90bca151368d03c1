package manager

import (
	"fmt"
	"strings"

	"xymon/internal/sublang"
)

// Section 5.4 discusses controlling subscriptions whose cost would be
// prohibitive, and sketches both options implemented here:
//
//   - "use a cost model to estimate a priori the cost of a subscription and
//     restrict the right of specifying expensive subscriptions" — Estimate
//     scores a subscription before registration; Config.MaxCost rejects
//     subscriptions above the budget.
//   - "allow arbitrary subscriptions, but inhibit them a posteriori, if the
//     system finds out they require too much resources" — the manager
//     tracks per-subscription notification rates and suspends subscriptions
//     that exceed Config.InhibitRate notifications per processed document.

// Cost is the estimated resource consumption of a subscription, in
// abstract work units per fetched document (monitoring side) plus units
// per day (continuous side).
type Cost struct {
	// PerDoc estimates matching and alert work per fetched document; the
	// dominant factor is how unselective the conditions are.
	PerDoc float64
	// PerDay estimates continuous-query evaluations per day.
	PerDay float64
}

// Total folds the two components into one comparable number (one day at
// the paper's 4M pages/day crawl rate).
func (c Cost) Total() float64 {
	return c.PerDoc*4e6 + c.PerDay
}

// selectivity estimates the fraction of fetched documents raising the
// atomic event of a condition. The constants are heuristic but ordered:
// exact identifiers are rare, prefixes rarer the longer they are, change
// patterns on the whole web are common.
func selectivity(c sublang.Condition) float64 {
	switch c.Kind {
	case sublang.CondURLEquals, sublang.CondDOCID:
		return 1e-6
	case sublang.CondURLExtends:
		// Longer prefixes select fewer pages; a bare host selects a site.
		n := len(strings.TrimSpace(c.Str))
		switch {
		case n >= 40:
			return 1e-5
		case n >= 20:
			return 1e-4
		default:
			return 1e-3
		}
	case sublang.CondFilename, sublang.CondDTD, sublang.CondDTDID:
		return 1e-3
	case sublang.CondDomain:
		return 1e-2
	case sublang.CondLastAccessed, sublang.CondLastUpdate:
		return 0.5
	case sublang.CondSelfContains:
		return 1e-2
	case sublang.CondSelfChange:
		// Weak events: nearly every fetch is new/updated/unchanged.
		return 0.5
	case sublang.CondElement:
		if c.Change != sublang.NoChange && c.Str != "" {
			return 1e-3
		}
		if c.Str != "" {
			return 1e-2
		}
		return 0.1
	}
	return 1
}

// Estimate scores a parsed subscription.
func Estimate(sub *sublang.Subscription) Cost {
	var cost Cost
	for _, m := range sub.Monitoring {
		// A conjunction fires at the rate of its most selective condition;
		// detection work is paid per condition.
		rate := 1.0
		for _, c := range m.Where {
			s := selectivity(c)
			if s < rate {
				rate = s
			}
			cost.PerDoc += 1e-7 // per-condition detection overhead
		}
		cost.PerDoc += rate // notification construction and reporting
	}
	for _, cq := range sub.Continuous {
		switch {
		case cq.When.Freq != 0:
			cost.PerDay += 24.0 * float64(sublang.Hourly) / float64(cq.When.Freq)
		default:
			// Notification-triggered: bounded by the triggering query's
			// rate; assume a busy trigger.
			cost.PerDay += 100
		}
	}
	return cost
}

// suspended state handling --------------------------------------------------

// ErrNotSuspended is returned by Resume when the subscription is not
// suspended.
var ErrNotSuspended = fmt.Errorf("manager: subscription is not suspended")

// Resume lifts a posteriori inhibition from a subscription, publishing its
// queries again. Its complex events never left the matcher, so Resume
// cannot fail part-way.
func (m *Manager) Resume(name string) error { //xyvet:ignore testonly library action with no xymond route: xymond sets no InhibitRate, so only the cost tests suspend
	m.mu.Lock()
	defer m.mu.Unlock()
	rs, ok := m.subs[name]
	if !ok {
		return ErrUnknownSubscription
	}
	if !rs.suspended {
		return ErrNotSuspended
	}
	for _, rq := range rs.queries {
		m.queries.set(rq.id, rq)
	}
	rs.suspended = false
	rs.notifWindow = 0
	rs.docsWindow = 0
	return nil
}

// noteNotificationsLocked updates a subscription's rate window — its
// notifications against the global processed-document counter — and
// suspends it when the rate exceeds the inhibition budget: its queries
// leave the query table, so a match of their complex events resolves to
// nothing and the flood stops before any payload is built. The matcher
// keeps the events, so Resume has nothing to re-register.
func (m *Manager) noteNotificationsLocked(rs *registeredSub, produced int) {
	if m.inhibitRate <= 0 || rs.suspended {
		return
	}
	if rs.docsWindow == 0 {
		// Window opens at the first notification after a reset.
		rs.docsWindow = int(m.docsProcessed.Load())
	}
	rs.notifWindow += produced
	const window = 64 // processed documents per observation window
	span := int(m.docsProcessed.Load()) - rs.docsWindow + 1
	if span < window {
		return
	}
	rate := float64(rs.notifWindow) / float64(span)
	rs.notifWindow = 0
	rs.docsWindow = 0
	if rate <= m.inhibitRate {
		return
	}
	for _, rq := range rs.queries {
		m.queries.set(rq.id, nil)
	}
	rs.suspended = true
	m.suspensions++
}
