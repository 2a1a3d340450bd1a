package node

import (
	"math"
	"math/rand"
)

// LinkConfig models the radio channel: a packet is lost with probability
// LossProb; after each transmission the node listens AckTime for the
// acknowledgement (at RxI) and retries up to MaxRetries times. The zero
// value is the ideal lossless link (no ACK listening, no retries), which
// keeps the energy model identical to the basic duty-cycle firmware.
type LinkConfig struct {
	LossProb   float64 // per-attempt packet loss probability (0–1)
	MaxRetries int     // additional attempts after the first
	AckTime    float64 // ACK listen window per attempt (s); 0 disables
	RxI        float64 // radio receive/listen current (A)
	Seed       int64   // channel randomness seed
}

// Validate checks the link parameters.
func (l LinkConfig) Validate() error {
	for _, f := range [...]struct {
		name string
		v    float64
	}{{"loss probability", l.LossProb}, {"ACK window", l.AckTime}, {"receive current", l.RxI}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return errLink(f.name+" must be finite", f.v)
		}
	}
	switch {
	case l.LossProb < 0 || l.LossProb >= 1:
		return errLink("loss probability must be in [0, 1)", l.LossProb)
	case l.MaxRetries < 0:
		return errLink("retries must be non-negative", float64(l.MaxRetries))
	case l.AckTime < 0:
		return errLink("ACK window must be non-negative", l.AckTime)
	case l.RxI < 0:
		return errLink("receive current must be non-negative", l.RxI)
	}
	return nil
}

func errLink(msg string, v float64) error {
	return &linkError{msg: msg, v: v}
}

type linkError struct {
	msg string
	v   float64
}

func (e *linkError) Error() string {
	return "node: link " + e.msg
}

// burstSeg is one constant-current segment of a transmit burst.
type burstSeg struct {
	dur     float64
	current float64
}

// buildBurst simulates the channel outcomes for nPackets queued packets
// and returns the resulting activity segments plus delivery counts. rng
// is only read on a lossy link (LossProb > 0) and may be nil otherwise.
func buildBurst(cfg Config, link LinkConfig, rng *rand.Rand, nPackets int) (segs []burstSeg, delivered, lost, retries int) {
	for p := 0; p < nPackets; p++ {
		attempts := 1 + link.MaxRetries
		done := false
		for a := 0; a < attempts && !done; a++ {
			segs = append(segs, burstSeg{dur: cfg.TxTime, current: cfg.McuI + cfg.TxI})
			if link.AckTime > 0 {
				segs = append(segs, burstSeg{dur: link.AckTime, current: cfg.McuI + link.RxI})
			}
			if a > 0 {
				retries++
			}
			if link.LossProb <= 0 || rng.Float64() >= link.LossProb {
				delivered++
				done = true
			}
		}
		if !done {
			lost++
		}
	}
	return segs, delivered, lost, retries
}
