package node

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func testConfig() Config {
	c := Default()
	c.Period = 1 // fast cycles for tests
	c.BootTime = 10e-3
	return c
}

func TestDefaultValidates(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	mut := []func(*Config){
		func(c *Config) { c.Period = 0 },
		func(c *Config) { c.MeasureTime = 0 },
		func(c *Config) { c.TxTime = -1 },
		func(c *Config) { c.BootTime = -1 },
		func(c *Config) { c.SleepI = -1 },
		func(c *Config) { c.VRail = 0 },
		func(c *Config) { c.MaxBuffer = -1 },
		func(c *Config) { c.Period = c.MeasureTime + c.TxTime }, // no sleep room
	}
	for i, m := range mut {
		c := Default()
		m(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d not caught", i)
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}, AlwaysTransmit{}); err == nil {
		t.Fatal("invalid config must be rejected")
	}
	if _, err := New(Default(), nil); err == nil {
		t.Fatal("nil policy must be rejected")
	}
	// An ideal link never draws channel randomness, so New allocates the
	// node alone — no rand source.
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := New(Default(), AlwaysTransmit{}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("ideal-link New allocates %.0f objects, want 1 (the node)", allocs)
	}
}

func TestCyclePowerBudget(t *testing.T) {
	c := Default()
	got := c.CyclePowerBudget()
	eM := (c.McuI + c.SensorI) * c.VRail * c.MeasureTime
	eT := (c.McuI + c.TxI) * c.VRail * c.TxTime
	eS := c.SleepI * c.VRail * (c.Period - c.MeasureTime - c.TxTime)
	want := (eM + eT + eS) / c.Period
	if math.Abs(got-want) > 1e-15 {
		t.Fatalf("budget = %v, want %v", got, want)
	}
	// Order of magnitude: tens of µW for the default node.
	if got < 1e-6 || got > 1e-3 {
		t.Fatalf("budget %v W implausible", got)
	}
}

// run steps the node with constant power state and store voltage.
func run(t *testing.T, n *Node, seconds, dt float64, powered bool, vstore float64) {
	t.Helper()
	steps := int(seconds / dt)
	for i := 0; i < steps; i++ {
		n.Step(dt, powered, vstore)
	}
}

func TestDutyCycleProducesPackets(t *testing.T) {
	n, err := New(testConfig(), AlwaysTransmit{})
	if err != nil {
		t.Fatal(err)
	}
	run(t, n, 10.5, 1e-3, true, 3.5)
	c := n.Counters()
	// Period 1 s over ~10 s: expect ≈10 measurement cycles.
	if c.Measurements < 8 || c.Measurements > 11 {
		t.Fatalf("measurements = %d, want ≈10", c.Measurements)
	}
	if c.Packets != c.Measurements {
		t.Fatalf("always-transmit must send every measurement: %d vs %d", c.Packets, c.Measurements)
	}
	if c.SkippedTx != 0 {
		t.Fatalf("always-transmit skipped %d", c.SkippedTx)
	}
	if math.IsNaN(c.FirstTxTime) || c.FirstTxTime > 2 {
		t.Fatalf("first packet at %v, want ≈1 s", c.FirstTxTime)
	}
}

func TestUnpoweredNodeDoesNothing(t *testing.T) {
	n, err := New(testConfig(), AlwaysTransmit{})
	if err != nil {
		t.Fatal(err)
	}
	run(t, n, 5, 1e-3, false, 0)
	c := n.Counters()
	if c.Measurements != 0 || c.Packets != 0 {
		t.Fatal("unpowered node must not work")
	}
	if c.UpTime != 0 {
		t.Fatalf("uptime = %v, want 0", c.UpTime)
	}
	if math.Abs(c.DownTime-5) > 1e-9 {
		t.Fatalf("downtime = %v, want 5", c.DownTime)
	}
	if c.RailEnergy != 0 {
		t.Fatal("no energy drawn when off")
	}
}

func TestBrownoutLosesBufferAndCounts(t *testing.T) {
	cfg := testConfig()
	n, err := New(cfg, ThresholdPolicy{VThreshold: 10}) // never transmits: buffer grows
	if err != nil {
		t.Fatal(err)
	}
	run(t, n, 3.5, 1e-3, true, 3) // a few measurements buffered
	if n.Buffered() == 0 {
		t.Fatal("expected buffered measurements")
	}
	n.Step(1e-3, false, 0) // power drops
	c := n.Counters()
	if c.Brownouts != 1 {
		t.Fatalf("brownouts = %d, want 1", c.Brownouts)
	}
	if n.Buffered() != 0 {
		t.Fatal("brownout must clear the volatile buffer")
	}
	// Power returns: node must cold-boot and resume.
	run(t, n, 2.5, 1e-3, true, 3)
	if n.Counters().Measurements <= c.Measurements {
		t.Fatal("node did not resume after brownout")
	}
}

func TestThresholdPolicyBuffersThenBursts(t *testing.T) {
	cfg := testConfig()
	n, err := New(cfg, ThresholdPolicy{VThreshold: 3.0})
	if err != nil {
		t.Fatal(err)
	}
	// Below threshold: only buffering.
	run(t, n, 4.5, 1e-3, true, 2.0)
	c := n.Counters()
	if c.Packets != 0 {
		t.Fatalf("below threshold must not transmit, got %d packets", c.Packets)
	}
	if c.SkippedTx == 0 {
		t.Fatal("expected skipped transmissions")
	}
	buffered := n.Buffered()
	if buffered == 0 {
		t.Fatal("expected buffered measurements")
	}
	// Above threshold: the whole buffer goes out in a burst.
	run(t, n, 1.5, 1e-3, true, 3.5)
	c = n.Counters()
	if c.Packets < buffered {
		t.Fatalf("burst must flush the buffer: %d packets, %d buffered", c.Packets, buffered)
	}
	if n.Buffered() != 0 {
		t.Fatal("buffer must be empty after the burst")
	}
}

func TestBufferOverflowDropsMeasurements(t *testing.T) {
	cfg := testConfig()
	cfg.MaxBuffer = 2
	n, err := New(cfg, ThresholdPolicy{VThreshold: 10})
	if err != nil {
		t.Fatal(err)
	}
	run(t, n, 8.5, 1e-3, true, 2.0)
	c := n.Counters()
	if c.DroppedMeas == 0 {
		t.Fatal("expected dropped measurements with a tiny buffer")
	}
	if n.Buffered() > cfg.MaxBuffer {
		t.Fatalf("buffer %d exceeds cap %d", n.Buffered(), cfg.MaxBuffer)
	}
}

func TestAdaptivePolicyStretchesPeriod(t *testing.T) {
	p := AdaptivePolicy{VEmpty: 2.5, VFull: 4.0, MaxScale: 6}
	if got := p.NextPeriod(4.0, 10); got != 10 {
		t.Fatalf("full store period = %v, want 10", got)
	}
	if got := p.NextPeriod(2.5, 10); math.Abs(got-60) > 1e-9 {
		t.Fatalf("empty store period = %v, want 60", got)
	}
	mid := p.NextPeriod(3.25, 10)
	if mid <= 10 || mid >= 60 {
		t.Fatalf("mid store period = %v, want between", mid)
	}
	// Clamped outside the window.
	if got := p.NextPeriod(5.0, 10); got != 10 {
		t.Fatalf("above-full period = %v, want 10", got)
	}
	if got := p.NextPeriod(1.0, 10); math.Abs(got-60) > 1e-9 {
		t.Fatalf("below-empty period = %v, want 60", got)
	}
	// Degenerate config returns base.
	if got := (AdaptivePolicy{VEmpty: 3, VFull: 3, MaxScale: 6}).NextPeriod(2, 10); got != 10 {
		t.Fatalf("degenerate adaptive = %v", got)
	}
	if !p.ShouldTransmit(3.0) || p.ShouldTransmit(2.0) {
		t.Fatal("adaptive transmit gate wrong")
	}
}

func TestAdaptiveNodeFewerPacketsWhenLow(t *testing.T) {
	mk := func(v float64) int {
		cfg := testConfig()
		n, err := New(cfg, AdaptivePolicy{VEmpty: 2.5, VFull: 4.0, MaxScale: 8})
		if err != nil {
			t.Fatal(err)
		}
		run(t, n, 30, 1e-3, true, v)
		return n.Counters().Packets
	}
	high, low := mk(4.0), mk(2.6)
	if low >= high {
		t.Fatalf("low-energy node (%d packets) must throttle below high-energy (%d)", low, high)
	}
}

func TestRailEnergyAccounting(t *testing.T) {
	cfg := testConfig()
	n, err := New(cfg, AlwaysTransmit{})
	if err != nil {
		t.Fatal(err)
	}
	run(t, n, 10, 1e-3, true, 3.5)
	c := n.Counters()
	// Energy must be positive and of the order CyclePowerBudget × 10 s.
	want := cfg.CyclePowerBudget() * 10
	if c.RailEnergy < want/3 || c.RailEnergy > want*3 {
		t.Fatalf("rail energy = %v J, want ≈%v J", c.RailEnergy, want)
	}
}

func TestStepReturnsAverageCurrent(t *testing.T) {
	cfg := testConfig()
	n, err := New(cfg, AlwaysTransmit{})
	if err != nil {
		t.Fatal(err)
	}
	// During deep sleep the step current equals the sleep current.
	n.Step(1e-3, true, 3.5) // boot begins
	run(t, n, cfg.BootTime+0.1, 1e-3, true, 3.5)
	i := n.Step(1e-3, true, 3.5)
	if math.Abs(i-cfg.SleepI) > cfg.SleepI*0.5 {
		t.Fatalf("sleep current = %v, want ≈%v", i, cfg.SleepI)
	}
	if got := n.Step(0, true, 3.5); got != 0 {
		t.Fatalf("zero-dt step must return 0, got %v", got)
	}
}

func TestUptimeDowntimeSum(t *testing.T) {
	cfg := testConfig()
	n, err := New(cfg, AlwaysTransmit{})
	if err != nil {
		t.Fatal(err)
	}
	const horizon = 6.0
	steps := int(horizon / 1e-3)
	for i := 0; i < steps; i++ {
		powered := i < steps/2
		n.Step(1e-3, powered, 3.5)
	}
	c := n.Counters()
	if math.Abs(c.UpTime+c.DownTime-horizon) > 1e-6 {
		t.Fatalf("uptime %v + downtime %v != %v", c.UpTime, c.DownTime, horizon)
	}
}

func TestPolicyNames(t *testing.T) {
	if (AlwaysTransmit{}).Name() == "" {
		t.Fatal("empty name")
	}
	if (ThresholdPolicy{VThreshold: 3}).Name() == "" {
		t.Fatal("empty name")
	}
	if (AdaptivePolicy{}).Name() == "" {
		t.Fatal("empty name")
	}
}

func BenchmarkNodeStep(b *testing.B) {
	n, err := New(Default(), ThresholdPolicy{VThreshold: 3})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Step(1e-3, true, 3.5)
	}
}

func TestCountersJSONRoundTrip(t *testing.T) {
	// The NaN "no packet yet" sentinel must survive JSON — the simulation
	// cache persists Counters inside sim.Result disk entries.
	c := Counters{Measurements: 3, Packets: 0, UpTime: 12.5, FirstTxTime: math.NaN()}
	b, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"FirstTxTime":null`) {
		t.Fatalf("NaN sentinel not encoded as null: %s", b)
	}
	var back Counters
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(back.FirstTxTime) {
		t.Fatalf("sentinel lost: %v", back.FirstTxTime)
	}
	back.FirstTxTime, c.FirstTxTime = 0, 0
	if back != c {
		t.Fatalf("round trip altered counters: %+v vs %+v", back, c)
	}

	// A finite first-tx time round-trips as a plain number, and a document
	// omitting the field restores the sentinel.
	c.FirstTxTime = 4.25
	b, _ = json.Marshal(c)
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.FirstTxTime != 4.25 {
		t.Fatalf("finite value lost: %v", back.FirstTxTime)
	}
	if err := json.Unmarshal([]byte(`{"Packets":1}`), &back); err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(back.FirstTxTime) {
		t.Fatal("missing field must restore the NaN sentinel")
	}
}
