package core

import (
	"fmt"
	"math"
	"testing"

	"wlansim/internal/rf"
	"wlansim/internal/sim"
)

// sameResult reports whether two Results agree bit for bit: the BER counter
// and the EVM's float bits and symbol count.
func sameResult(a, b *Result) bool {
	return a.Counter == b.Counter && a.EVM.Symbols == b.EVM.Symbols &&
		math.Float64bits(a.EVM.RMS) == math.Float64bits(b.EVM.RMS) &&
		a.OversampleFactor == b.OversampleFactor && a.FrontEnd == b.FrontEnd
}

// runAtWidth runs cfg twice on one Bench whose packet groups are width
// lanes wide, failing unless the second Run repeats the first.
func runAtWidth(t *testing.T, cfg Config, width int) *Result {
	t.Helper()
	bench, err := NewBench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bench.laneWidth = width
	first, err := bench.Run()
	if err != nil {
		t.Fatal(err)
	}
	again, err := bench.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !sameResult(first, again) {
		t.Fatalf("width %d: second Run %+v %v != first %+v %v", width, again.Counter, again.EVM, first.Counter, first.EVM)
	}
	return first
}

// TestRunPacketBatchInvariant is the packet-lane invariance suite: Run's
// Result must be bit-identical for every group width 1..8, across rates and
// powers, early stops inside a group, suffix-noise SNR runs, packet counts
// that leave a ragged last group, ADC off, channel impairments, hard
// decisions, and the Fig. 5 and Fig. 6 sweep points with and without the
// stage cache.
func TestRunPacketBatchInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("behavioral chain at eight group widths is too slow for -short")
	}
	base := DefaultConfig()
	base.PSDULen = 40
	base.Packets = 6

	type scenario struct {
		name string
		cfg  func() Config
		// check, if set, asserts the scenario exercises what it claims.
		check func(*Result) error
	}
	var cases []scenario
	for _, rate := range []int{6, 24, 54} {
		for _, dBm := range []float64{-85, -62, -30} {
			cases = append(cases, scenario{
				name: fmt.Sprintf("%d Mbps at %g dBm", rate, dBm),
				cfg: func() Config {
					cfg := base
					cfg.RateMbps = rate
					cfg.WantedPowerDBm = dBm
					return cfg
				},
			})
		}
	}
	snr := func(cfg Config, dB float64) Config {
		cfg.ChannelSNRdB = &dB
		return cfg
	}
	stopsEarly := func(r *Result) error {
		if r.Counter.Packets == 0 || r.Counter.Packets%4 == 0 || r.Counter.Packets >= 12 {
			return fmt.Errorf("stopped after %d packets, want a stop inside a 4-wide group", r.Counter.Packets)
		}
		return nil
	}
	cases = append(cases,
		scenario{
			name: "TargetErrors trips mid-group",
			cfg: func() Config {
				cfg := base
				cfg.RateMbps, cfg.WantedPowerDBm = 54, -85
				cfg.Packets, cfg.TargetErrors = 12, 300
				return cfg
			},
			check: stopsEarly,
		},
		scenario{
			name: "suffix-noise TargetErrors trips mid-group",
			cfg: func() Config {
				cfg := snr(base, 6)
				cfg.Packets, cfg.TargetErrors = 12, 300
				return cfg
			},
			check: stopsEarly,
		},
		scenario{name: "suffix noise 10 dB", cfg: func() Config { return snr(base, 10) }},
		scenario{name: "suffix noise 25 dB", cfg: func() Config { return snr(base, 25) }},
		scenario{
			name: "7 packets (ragged last group)",
			cfg: func() Config {
				cfg := snr(base, 10)
				cfg.Packets = 7
				return cfg
			},
		},
		scenario{
			// Without quantization no ADC step hides a gain difference in
			// the last bits, so any AGC state a lane carried would show.
			name: "ADC off",
			cfg: func() Config {
				cfg := base
				cfg.TuneRF = func(rc *rf.ReceiverConfig) { rc.ADC.Bits = 0 }
				return cfg
			},
		},
		scenario{
			// Per-packet channel draws (fading taps, CFO phase) and a
			// resampled, sample-clock-shifted frame in every lane.
			name: "channel impairments",
			cfg: func() Config {
				cfg := snr(base, 20)
				cfg.CFOHz, cfg.SampleClockPPM = 30e3, 20
				cfg.MultipathTaps, cfg.MultipathRMSSamples, cfg.DopplerHz = 3, 1, 50
				return cfg
			},
		},
		scenario{
			name: "hard decisions",
			cfg: func() Config {
				cfg := snr(base, 10)
				cfg.HardDecisions = true
				return cfg
			},
		},
	)
	for _, cached := range []bool{true, false} {
		newCache := func() *sim.StageCache { return nil }
		if cached {
			newCache = func() *sim.StageCache { return sim.NewStageCache(0) }
		}
		fig5 := Figure5Config()
		fig5.PSDULen, fig5.Packets = 40, 5
		fig6 := Figure6Config()
		fig6.PSDULen, fig6.Packets = 40, 5
		cases = append(cases,
			scenario{
				name: fmt.Sprintf("Fig. 5 point (stage cache %v)", cached),
				cfg:  func() Config { return filterBandwidthPoint(fig5, 7.6e6, newCache()) },
			},
			scenario{
				name: fmt.Sprintf("Fig. 6 point with adjacent channel (stage cache %v)", cached),
				cfg:  func() Config { return compressionPoint(fig6, -30, true, newCache()) },
			},
		)
	}

	for _, c := range cases {
		want := runAtWidth(t, c.cfg(), 1)
		if c.check != nil {
			if err := c.check(want); err != nil {
				t.Errorf("%s: %v", c.name, err)
			}
		}
		for width := 2; width <= 8; width++ {
			got := runAtWidth(t, c.cfg(), width)
			if !sameResult(got, want) {
				t.Errorf("%s: width %d gave %+v %v, width 1 gave %+v %v",
					c.name, width, got.Counter, got.EVM, want.Counter, want.EVM)
			}
		}
	}
}

// TestBenchRunHistoryIndependent pins that no front-end state leaks from
// one Run into the next. With the ADC off nothing quantizes away a gain
// difference in the last bits, so an AGC that kept loop state across Reset
// shows up in the EVM: the second Run on one Bench must equal the first and
// a fresh Bench's. Five packets run as a four-wide group and a one-wide
// group, so both the batched and the sequential front end are covered.
func TestBenchRunHistoryIndependent(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Packets = 5
	cfg.TuneRF = func(rc *rf.ReceiverConfig) { rc.ADC.Bits = 0 }
	bench, err := NewBench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	first, err := bench.Run()
	if err != nil {
		t.Fatal(err)
	}
	second, err := bench.Run()
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewBench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !sameResult(first, want) {
		t.Errorf("first Run %+v EVM bits %#x, fresh Bench %+v EVM bits %#x",
			first.Counter, math.Float64bits(first.EVM.RMS), want.Counter, math.Float64bits(want.EVM.RMS))
	}
	if !sameResult(second, want) {
		t.Errorf("second Run %+v EVM bits %#x, fresh Bench %+v EVM bits %#x",
			second.Counter, math.Float64bits(second.EVM.RMS), want.Counter, math.Float64bits(want.EVM.RMS))
	}
}
