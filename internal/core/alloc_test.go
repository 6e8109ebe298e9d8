package core

import (
	"testing"

	"wlansim/internal/race"
)

// packetRunAllocBudget is the steady-state allocation budget for one
// behavioral packet simulation (one Bench.Run with warm buffers). The real
// figure is ~14–17 objects — receiver result assembly and a handful of
// unavoidable interface boxes — and, critically, it must not scale with the
// symbol count: 6 Mbit/s sends ~4x the OFDM symbols of 54 Mbit/s, so a
// per-symbol allocation shows up as a rate-dependent blow-up long before it
// trips the shared budget.
const packetRunAllocBudget = 24

// lanedRunAllocBudget is the steady-state budget for one 8-packet
// Bench.Run, which runs two full 4-packet lane groups: the count one such
// Run made before packets ran as lanes (121 at 24 Mbit/s). The packet lanes,
// the batched front end and the DSP receiver all reuse
// Bench-owned scratch, so lanes must not add allocations.
const lanedRunAllocBudget = 121

// TestPacketRunAllocBounded gates every rate's packet hot path under one
// shared AllocsPerRun budget per packet count: one packet (a one-wide lane
// group) and eight packets (two four-wide groups). Before the
// TransmitInto/ReuseBuffers work the 6 Mbit/s path allocated ~4x the other
// rates (fresh per-symbol and per-frame buffers); this test keeps all rates
// on the reuse path.
func TestPacketRunAllocBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("behavioral chain too slow for -short")
	}
	if race.Enabled {
		// The receive chain rides the FFT plan's sync.Pool scratch, and the
		// race detector intentionally drops pool Puts, inflating the count
		// past the budget. check.sh enforces this gate without -race.
		t.Skip("sync.Pool drops Puts under the race detector; the non-race alloc gate enforces this budget")
	}
	for _, rate := range []int{6, 24, 54} {
		for _, c := range []struct{ packets, budget int }{
			{1, packetRunAllocBudget},
			{8, lanedRunAllocBudget},
		} {
			cfg := packetBenchConfig(rate)
			cfg.Packets = c.packets
			bench, err := NewBench(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Warm every reused buffer (front end, frame, lanes, receivers).
			if _, err := bench.Run(); err != nil {
				t.Fatal(err)
			}
			n := testing.AllocsPerRun(5, func() {
				if _, err := bench.Run(); err != nil {
					panic(err)
				}
			})
			if n > float64(c.budget) {
				t.Errorf("%d Mbit/s, %d packets: %v allocations per run, budget %d — a hot-path buffer stopped being reused",
					rate, c.packets, n, c.budget)
			}
		}
	}
}
