package faults

import (
	"sync/atomic"

	"xymon/internal/reporter"
)

// FaultyDelivery wraps a reporter.Delivery and consults an Injector at
// PointDelivery before every report. Error-mode faults fail the delivery
// (feeding the Reporter's retry queue); drop faults lose the report
// silently — the Lost counter is the only trace, standing in for the mail
// that sendmail accepted and never sent; latency faults delay it.
type FaultyDelivery struct {
	sink reporter.Delivery
	in   *Injector
	lost atomic.Uint64
}

// WrapDelivery wraps sink so Deliver consults in.
func WrapDelivery(sink reporter.Delivery, in *Injector) *FaultyDelivery { //xyvet:ignore testonly fault-injector API the chaos and crash tests arm
	return &FaultyDelivery{sink: sink, in: in}
}

// Deliver applies armed faults, then delivers to the wrapped sink. The
// rule key is the report's subscription name.
func (d *FaultyDelivery) Deliver(rep *reporter.Report) error {
	f := d.in.Fire(PointDelivery, rep.Subscription)
	if f != nil {
		switch f.Mode {
		case ModeLatency:
			d.in.sleep(f.Latency)
		case ModeDrop:
			d.lost.Add(1)
			return nil
		default: // ModeError, ModeTruncate, ModeCrash (stubbed Exit)
			if f.Err != nil {
				return f.Err
			}
			return ErrInjected
		}
	}
	if err := d.sink.Deliver(rep); err != nil {
		return err
	}
	// The sink has the report; a fault (or crash) here is the lost ack:
	// the Reporter will retry, and the duplicate that results is the
	// at-least-once contract, not a bug.
	return d.in.Check(PointDeliveryAck, rep.Subscription)
}
