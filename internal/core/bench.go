// Package core assembles the paper's verification flow: an IEEE 802.11a
// transmission system (transmitter, channel with optional adjacent-channel
// interferers, RF receiver front end at a selectable abstraction level, and
// the DSP receiver) plus the measurement harnesses that regenerate every
// figure and table of the paper's evaluation (§5).
package core

import (
	"fmt"
	"math"
	"math/rand"

	"wlansim/internal/analog"
	"wlansim/internal/bits"
	"wlansim/internal/channel"
	"wlansim/internal/measure"
	"wlansim/internal/phy"
	"wlansim/internal/randutil"
	"wlansim/internal/rf"
	"wlansim/internal/rxdsp"
	"wlansim/internal/seed"
	"wlansim/internal/sim"
	"wlansim/internal/units"
)

// FrontEndKind selects the abstraction level of the analog receiver model,
// mirroring the paper's three simulation setups.
type FrontEndKind int

// Supported front-end abstraction levels.
const (
	// FrontEndIdeal is the idealized analog part (perfect channel
	// filtering, no impairments) used for EVM reference measurements.
	FrontEndIdeal FrontEndKind = iota
	// FrontEndBehavioral is the complex-baseband rflib-style model inside
	// the system simulator (the pure-SPW setup).
	FrontEndBehavioral
	// FrontEndCoSim is the continuous-time analog solver (the SPW-AMS
	// co-simulation setup).
	FrontEndCoSim
	// FrontEndBlackBox is a K-model (Moult/Chen, the paper's ref [6])
	// extracted from the continuous-time solver and instantiated in the
	// system simulation: near co-simulation fidelity at system-level speed.
	// Extraction happens once per Bench; like the real flow it captures the
	// deterministic behavior only (no noise sources).
	FrontEndBlackBox
)

// String names the abstraction level.
func (k FrontEndKind) String() string {
	switch k {
	case FrontEndIdeal:
		return "ideal"
	case FrontEndBehavioral:
		return "behavioral-baseband"
	case FrontEndCoSim:
		return "analog-cosim"
	case FrontEndBlackBox:
		return "kmodel-blackbox"
	default:
		return "?"
	}
}

// InterfererSpec describes one interfering 802.11a emitter (paper §4.1: a
// duplicated transmitter shifted in frequency).
type InterfererSpec struct {
	// OffsetHz is the carrier offset (+20e6 for the first adjacent channel,
	// +40e6 for the second).
	OffsetHz float64
	// PowerDBm is the interferer's received power.
	PowerDBm float64
	// RateMbps selects the interferer's modulation (default 24).
	RateMbps int
}

// Config describes one measurement scenario.
type Config struct {
	// RateMbps is the wanted link's data rate.
	RateMbps int
	// PSDULen is the payload length per packet in octets.
	PSDULen int
	// Packets is the number of packets to simulate.
	Packets int
	// Seed makes the run reproducible.
	Seed int64
	// WantedPowerDBm is the wanted signal's received power (paper §2.2:
	// -88..-23 dBm).
	WantedPowerDBm float64
	// ChannelSNRdB, if non-nil, adds AWGN at the antenna with the given
	// in-band SNR relative to the wanted signal.
	ChannelSNRdB *float64
	// CFOHz applies a carrier frequency offset to the composite signal.
	CFOHz float64
	// MultipathTaps > 0 enables a Rayleigh channel with that many taps.
	MultipathTaps int
	// MultipathRMSSamples is the exponential delay profile constant.
	MultipathRMSSamples float64
	// DopplerHz > 0 makes the multipath channel time-varying (Jakes model).
	DopplerHz float64
	// SampleClockPPM applies a TX/RX sampling-clock offset in ppm.
	SampleClockPPM float64
	// Interferers places adjacent/non-adjacent channels.
	Interferers []InterfererSpec
	// FrontEnd selects the analog model abstraction level.
	FrontEnd FrontEndKind
	// TuneRF, if set, adjusts the behavioral receiver configuration after
	// defaults are applied (used by the parameter sweeps).
	TuneRF func(*rf.ReceiverConfig)
	// SweptFrontEndFilterOnly is a sweep harness's promise that its swept
	// front-end parameter (applied through TuneRF) only alters the behavioral
	// receiver's channel-select filter or blocks after it. TuneRF is a
	// function and cannot be content-hashed, so this explicit declaration is
	// what authorizes caching the front-end segment upstream of the filter
	// (LNA, mixers, DC block) across the sweep's points — exact because each
	// block consumes the whole frame before the next runs and every front-end
	// noise/LO stream restarts identically per packet. Only meaningful with
	// SweptStage == StageFrontEnd and FrontEnd == FrontEndBehavioral.
	SweptFrontEndFilterOnly bool
	// TuneCoSim likewise adjusts the analog solver configuration.
	TuneCoSim func(*analog.FrontEndConfig)
	// UseIdealRxTiming decodes with genie timing instead of the
	// synchronizing receiver (only valid without interferers and with the
	// ideal front end; used for the paper's EVM methodology).
	UseIdealRxTiming bool
	// HardDecisions disables soft Viterbi metrics in the DSP receiver
	// (ablation).
	HardDecisions bool
	// DisableCSI disables channel-state weighting of the soft metrics
	// (ablation).
	DisableCSI bool
	// Workers is the number of sweep points the experiment harnesses
	// evaluate concurrently (0 = all CPUs, 1 = serial). Results are
	// identical for every value: each point and each packet derives its
	// seeds from Seed via internal/seed, never from execution order.
	Workers int
	// Batch, when > 1, lets sweep harnesses dispatch that many equal-config
	// points (noise-only sweeps over the behavioral front end) through the
	// lock-step batched pipeline (RunBenchBatch). Results are bit-identical
	// for every value — batching changes wall-clock only, as the batch
	// differential tests pin. Ragged tail groups and unsupported sweep shapes
	// fall back to the sequential path automatically.
	Batch int
	// TargetErrors, when > 0, stops a bench run early once the accumulated
	// bit-error count reaches it (Packets stays the upper bound). Sweep
	// points record the confidence interval of the bits actually
	// simulated, so early-stopped points carry visibly wider intervals.
	TargetErrors int
	// SweptStage declares the first pipeline stage the sweep's swept
	// parameter affects (see Stage and StageParams). Stages strictly before
	// it are invariant across the sweep's points: they derive their
	// randomness from ContentSeed instead of Seed and may be served from
	// Cache. The zero value (StageTX) means everything depends on Seed —
	// the right default for standalone runs.
	SweptStage Stage
	// ContentSeed is the seed root of the invariant prefix stages (usually
	// the sweep's base seed, never the per-point derived Seed). Zero falls
	// back to Seed.
	ContentSeed int64
	// Cache, if non-nil, memoizes invariant prefix waveforms across the
	// Benches of one sweep run. Results are bit-identical with and without
	// it; only wall-clock changes.
	Cache *sim.StageCache
	// CacheBytes bounds the stage cache the sweep harnesses create (<= 0
	// selects sim.DefaultCacheBytes).
	CacheBytes int64
	// DisableStageCache makes the sweep harnesses run without a stage
	// cache (every point recomputes its full pipeline).
	DisableStageCache bool
	// OnSweepPoint, if set, is invoked by the single-series sweep harnesses
	// for each completed point, in Values order for each completed prefix
	// (sim.Sweep.OnPointDone). The point carries the raw swept value as X,
	// before any figure-axis rescaling the harness applies to the returned
	// series. The sweep service streams completed prefixes through this.
	OnSweepPoint func(measure.Point)
}

// DefaultConfig returns a baseline scenario: 24 Mbps, 100-byte packets,
// -62 dBm wanted power, behavioral front end, no interferers.
func DefaultConfig() Config {
	return Config{
		RateMbps:       24,
		PSDULen:        100,
		Packets:        10,
		Seed:           1,
		WantedPowerDBm: -62,
		FrontEnd:       FrontEndBehavioral,
	}
}

// Result summarizes one scenario run.
type Result struct {
	// Counter accumulates bit/packet error statistics over all packets.
	Counter measure.BERCounter
	// EVM is the mean decision-directed EVM over delivered packets.
	EVM measure.EVMResult
	// OversampleFactor is the composite-rate factor that was used.
	OversampleFactor int
	// FrontEnd echoes the abstraction level.
	FrontEnd FrontEndKind
}

// BER returns the measured bit error rate.
func (r *Result) BER() float64 { return r.Counter.BER() }

// leadInSamples is the silence/interferer-only time before the wanted packet
// at the native 20 MHz rate, letting filters and the AGC settle.
const leadInSamples = 600

// tailSamples pads after the packet so group delays don't truncate it.
const tailSamples = 300

// Bench runs measurement scenarios. The zero value is not usable; use
// NewBench. A Bench caches the constructed front end, transmitter, receivers
// and channel buffers across packets and Run calls. Every block is reset
// before each packet and no block carries history from one packet to the
// next, so results are identical to rebuilding them and a packet's outcome
// depends on its own index alone. A Bench must not be shared between
// goroutines.
type Bench struct {
	cfg Config

	fe       rf.FrontEnd
	tx       *phy.Transmitter
	irx      *rxdsp.IdealReceiver
	comp     *channel.Composer
	emitters []channel.Emitter

	// Stage RNG streams. txRNG and chRNG are re-seeded per packet and per
	// stage (seed.ForStage), so each stage's realization is a pure function
	// of (stage root, packet index) — the property that makes cached stage
	// outputs order-independent; both ride the arithmetic-reseed source so
	// the per-packet re-seed computes the register directly instead of
	// walking math/rand's seeding LCG. In suffix-noise mode the noise stream
	// is sequential across the packets of one Run and rewound to its mark at
	// the top of each Run, so SNR sweeps re-draw only the noise; noiseMarked
	// records that the mark was planted at the Run-level point seed.
	txRNG       *rand.Rand
	chRNG       *rand.Rand
	noiseRNG    *randutil.Rand
	noiseMarked bool

	// frame is the reused wanted-PPDU assembly target; gotBits receives
	// each decoded PSDU's bits for the error count.
	frame   phy.Frame
	gotBits []byte

	// Packet lanes (see Run): each lane's waveform buffer and DSP receiver,
	// the batched front end, and the per-group slices handed to it and to
	// the deferred decode — all reused across groups and Run calls.
	lanes   []packetLane
	batchFE *rf.BatchReceiver
	waves   [][]complex128
	rxs     []*rxdsp.Receiver
	pkts    []*rxdsp.PacketResult
	decode  rxdsp.DeferredScratch
	// laneWidth overrides packetLanes when positive. It exists for the
	// lane-width invariance tests only.
	laneWidth int

	// keyContent caches the content-key fold of the invariant configuration
	// (one kind/noise combination per Bench, so one fold suffices).
	keyContent uint64
}

// packetLanes is how many consecutive packets of one Run go through the
// behavioral front end and the Viterbi decoder in lock-step. Four lanes
// overlap the latency-bound AGC, biquad and trellis recurrences while the
// lane working set stays a few frames.
const packetLanes = 4

// packetLane is one packet slot of a Run group.
type packetLane struct {
	wave    []complex128    // the packet's waveform at the prefix boundary
	refBits []byte          // the packet's reference payload bits
	rx      *rxdsp.Receiver // the lane's DSP receiver (nil with ideal RX timing)
	rxErr   error           // the lane's Receive error
}

// NewBench validates the scenario.
func NewBench(cfg Config) (*Bench, error) {
	if cfg.PSDULen < 1 || cfg.PSDULen > 4095 {
		return nil, fmt.Errorf("core: PSDU length %d", cfg.PSDULen)
	}
	if cfg.Packets < 1 {
		return nil, fmt.Errorf("core: packet count %d", cfg.Packets)
	}
	if _, err := phy.ModeByRate(cfg.RateMbps); err != nil {
		return nil, err
	}
	if cfg.UseIdealRxTiming && (len(cfg.Interferers) > 0 || cfg.FrontEnd != FrontEndIdeal) {
		return nil, fmt.Errorf("core: ideal RX timing requires the ideal front end and no interferers")
	}
	for _, i := range cfg.Interferers {
		rate := i.RateMbps
		if rate == 0 {
			rate = 24
		}
		if _, err := phy.ModeByRate(rate); err != nil {
			return nil, err
		}
	}
	return &Bench{cfg: cfg}, nil
}

// oversample computes the composite oversampling factor for the scenario.
func (b *Bench) oversample() int {
	maxOffset := 0.0
	for _, i := range b.cfg.Interferers {
		if o := i.OffsetHz; o > maxOffset {
			maxOffset = o
		} else if -o > maxOffset {
			maxOffset = -o
		}
	}
	if maxOffset == 0 {
		return 1
	}
	return channel.MinOversample(maxOffset)
}

// buildFrontEnd constructs the configured analog model.
func (b *Bench) buildFrontEnd(os int) (rf.FrontEnd, error) {
	switch b.cfg.FrontEnd {
	case FrontEndIdeal:
		return rf.NewIdealFrontEnd(os)
	case FrontEndBehavioral:
		cfg := rf.DefaultReceiverConfig(os)
		// Calibrate the AGC starting point to the expected wanted level so
		// the loop only has to track.
		smallSignal := cfg.LNA.GainDB + cfg.Mixer1.ConversionGainDB + cfg.Mixer2.ConversionGainDB
		cfg.AGC.InitialGainDB = cfg.AGC.TargetDBm - (b.cfg.WantedPowerDBm + smallSignal)
		if b.cfg.TuneRF != nil {
			b.cfg.TuneRF(&cfg)
		}
		return rf.NewReceiver(cfg)
	case FrontEndCoSim:
		cfg := analog.DefaultFrontEndConfig()
		cfg.InputRateHz = 20e6 * float64(os)
		cfg.Seed = b.cfg.Seed + 7
		if b.cfg.TuneCoSim != nil {
			b.cfg.TuneCoSim(&cfg)
		}
		return analog.NewFrontEnd(cfg)
	case FrontEndBlackBox:
		cfg := analog.DefaultFrontEndConfig()
		cfg.InputRateHz = 20e6 * float64(os)
		cfg.EnableNoise = false
		cfg.LOLinewidthHz = 0
		// A coarser solver step suffices for the deterministic extraction
		// sweeps and keeps the one-off extraction cost low.
		cfg.SolverOversample = 16
		if b.cfg.TuneCoSim != nil {
			b.cfg.TuneCoSim(&cfg)
		}
		detailed, err := analog.NewFrontEnd(cfg)
		if err != nil {
			return nil, err
		}
		kCfg := rf.DefaultKModelConfig()
		kCfg.SampleRateHz = cfg.InputRateHz
		kCfg.SettleSamples = 1024
		kCfg.MeasureSamples = 1024
		kCfg.SweepStepDB = 4
		return rf.ExtractKModel(detailed, kCfg)
	default:
		return nil, fmt.Errorf("core: unknown front end %d", b.cfg.FrontEnd)
	}
}

// interfererPSDULen is the fixed payload length of interferer frames.
const interfererPSDULen = 200

// interfererWaveform produces a continuous stream of back-to-back frames
// covering at least total native samples. One transmitter is reused for all
// frames, and the stream is allocated once up front (the frame length is
// fixed by the rate and the constant payload size).
func interfererWaveform(rateMbps int, total int, rng *rand.Rand) ([]complex128, error) {
	if rateMbps == 0 {
		rateMbps = 24
	}
	tx, err := phy.NewTransmitter(rateMbps)
	if err != nil {
		return nil, err
	}
	nBits := phy.ServiceBits + interfererPSDULen*8 + phy.TailBits
	nSym := (nBits + tx.Mode.NDBPS() - 1) / tx.Mode.NDBPS()
	frameLen := phy.PreambleLen + (1+nSym)*phy.SymbolLen
	frames := (total + frameLen - 1) / frameLen
	out := make([]complex128, 0, frames*frameLen)
	for len(out) < total {
		tx.ScramblerSeed = byte(1 + rng.Intn(127))
		frame, err := tx.Transmit(bits.RandomBytes(rng, interfererPSDULen))
		if err != nil {
			return nil, err
		}
		out = append(out, frame.Samples...)
	}
	return out[:total], nil
}

// synthTX runs StageTX for packet p: it re-seeds the TX stream, draws the
// scrambler seed and payload, and assembles the PPDU into the bench's reused
// frame. The returned psdu and frame alias bench-owned buffers valid until
// the next synthTX call.
func (b *Bench) synthTX(p int) ([]byte, *phy.Frame, error) {
	if b.txRNG == nil {
		b.txRNG = randutil.NewReseedingRand(0)
	}
	rng := b.txRNG
	rng.Seed(seed.ForStage(b.stageRoot(StageTX), int(StageTX), p))
	b.tx.ScramblerSeed = byte(1 + rng.Intn(127))
	psdu := bits.RandomBytesInto(b.frame.PSDU[:0], rng, b.cfg.PSDULen)
	if err := b.tx.TransmitInto(&b.frame, psdu); err != nil {
		return nil, nil, err
	}
	return b.frame.PSDU, &b.frame, nil
}

// composeChannel runs StageChannel for packet p: interferer synthesis,
// oversampled composition, multipath, sample-clock offset and CFO — the
// noiseless antenna waveform. The result is written over dst (pass nil for a
// fresh allocation the caller will own).
func (b *Bench) composeChannel(dst []complex128, frame *phy.Frame, os, p int) ([]complex128, error) {
	if b.chRNG == nil {
		b.chRNG = randutil.NewReseedingRand(0)
	}
	rng := b.chRNG
	rng.Seed(seed.ForStage(b.stageRoot(StageChannel), int(StageChannel), p))

	totalNative := leadInSamples + len(frame.Samples) + tailSamples
	emitters := append(b.emitters[:0], channel.Emitter{
		Samples:      frame.Samples,
		OffsetHz:     0,
		PowerDBm:     b.cfg.WantedPowerDBm,
		DelaySamples: leadInSamples,
	})
	for _, spec := range b.cfg.Interferers {
		wave, err := interfererWaveform(spec.RateMbps, totalNative, rng)
		if err != nil {
			return nil, err
		}
		emitters = append(emitters, channel.Emitter{
			Samples:  wave,
			OffsetHz: spec.OffsetHz,
			PowerDBm: spec.PowerDBm,
		})
	}
	b.emitters = emitters
	if b.comp == nil {
		comp, err := channel.NewComposer(os)
		if err != nil {
			return nil, err
		}
		b.comp = comp
	}
	comp := b.comp
	x, err := comp.ComposeInto(dst, emitters)
	if err != nil {
		return nil, err
	}
	// Pad to the full scenario duration (Compose sizes the output to the
	// longest emitter): the tail absorbs the analog chain's group delay so
	// the last OFDM symbols are not truncated.
	if want := totalNative * os; len(x) < want {
		if cap(x) < want {
			grown := make([]complex128, len(x), want)
			copy(grown, x)
			x = grown
		}
		pad := x[len(x):want]
		for i := range pad {
			pad[i] = 0
		}
		x = x[:want]
	}

	fs := comp.CompositeRateHz()
	if b.cfg.MultipathTaps > 0 {
		if b.cfg.DopplerHz > 0 {
			fc, err := channel.NewFadingChannel(b.cfg.MultipathTaps,
				b.cfg.MultipathRMSSamples, b.cfg.DopplerHz, fs, rng.Int63())
			if err != nil {
				return nil, err
			}
			fc.Process(x)
		} else {
			mp, err := channel.NewRayleighChannel(b.cfg.MultipathTaps, b.cfg.MultipathRMSSamples, rng.Int63())
			if err != nil {
				return nil, err
			}
			mp.Process(x)
		}
	}
	if b.cfg.SampleClockPPM != 0 {
		sco, err := channel.NewSampleClockOffset(b.cfg.SampleClockPPM)
		if err != nil {
			return nil, err
		}
		x = sco.Process(x)
	}
	if b.cfg.CFOHz != 0 {
		channel.NewCFO(b.cfg.CFOHz, fs, rng.Float64()).Process(x)
	}
	return x, nil
}

// addNoise runs StageNoise: white noise across the composite band so the
// in-band (20 MHz) SNR equals the requested value, drawn from the given
// stream.
func (b *Bench) addNoise(x []complex128, os int, rng *randutil.Rand) {
	wantedW := units.DBmToWatts(b.cfg.WantedPowerDBm)
	noiseW := wantedW / units.DBToLinear(*b.cfg.ChannelSNRdB) * float64(os)
	channel.AWGNFrom(noiseW, rng).AddTo(x)
}

// noiseAfterFrontEnd reports whether the antenna AWGN may be applied after
// the front end instead of before it. This is exact — not an approximation —
// only for the identity chain: the ideal front end at oversample 1 is a
// sample-for-sample copy, so adding the same noise realization before or
// after it yields bit-identical basebands. SNR sweeps over that chain (the
// EVM and waterfall experiments) then share the noiseless post-front-end
// waveform across points and re-draw only the noise. The predicate depends
// on configuration alone, never on cache state, so cached and uncached runs
// place the noise identically.
func (b *Bench) noiseAfterFrontEnd(os int) bool {
	return b.cfg.SweptStage == StageNoise &&
		b.cfg.FrontEnd == FrontEndIdeal &&
		os == 1 &&
		b.cfg.ChannelSNRdB != nil
}

// suffixNoise reports whether the antenna noise belongs to the point-variant
// suffix (drawn from the sequential per-Run stream) rather than the cached
// invariant prefix (drawn from a per-packet stage stream).
func (b *Bench) suffixNoise() bool {
	return b.cfg.ChannelSNRdB != nil && b.cfg.SweptStage <= StageNoise
}

// preFilterPrefix reports whether the cached prefix may extend through the
// behavioral front end up to (but excluding) the channel-select filter. The
// sweep harness vouches via SweptFrontEndFilterOnly that the swept parameter
// only touches the filter or later blocks; the predicate itself depends on
// configuration alone, never on cache state.
func (b *Bench) preFilterPrefix() bool {
	return b.cfg.SweptStage == StageFrontEnd &&
		b.cfg.SweptFrontEndFilterOnly &&
		b.cfg.FrontEnd == FrontEndBehavioral
}

// fullPrefix computes TX + channel (+ prefix noise when withNoise) for packet
// p into a freshly allocated, caller-owned stage entry.
func (b *Bench) fullPrefix(p, os int, withNoise bool) (*stageEntry, error) {
	psdu, frame, err := b.synthTX(p)
	if err != nil {
		return nil, err
	}
	wave, err := b.composeChannel(nil, frame, os, p)
	if err != nil {
		return nil, err
	}
	if withNoise {
		if b.noiseRNG == nil {
			b.noiseRNG = randutil.NewRandDirect(0)
		}
		b.noiseRNG.Seed(seed.ForStage(b.stageRoot(StageNoise), int(StageNoise), p))
		b.addNoise(wave, os, b.noiseRNG)
	}
	return &stageEntry{refBits: bits.FromBytes(psdu), wave: wave}, nil
}

// prefixBoundary tells Run where packetPrefix's returned waveform sits in the
// pipeline, i.e. which suffix still has to run.
type prefixBoundary int

const (
	// prefixAntenna: the waveform is the antenna signal; noise (when in the
	// suffix) and the full front end still apply.
	prefixAntenna prefixBoundary = iota
	// prefixPreFilter: the waveform is inside the behavioral front end, just
	// upstream of the channel-select filter; ProcessFromFilter still applies.
	prefixPreFilter
	// prefixBaseband: the waveform is the noiseless post-front-end baseband;
	// only the per-point noise still applies (the SNR-sweep fast path).
	prefixBaseband
)

// boundary reports where the scenario's packet prefixes end. Like the
// predicates it combines, it depends on configuration alone.
func (b *Bench) boundary(os int) prefixBoundary {
	switch {
	case b.noiseAfterFrontEnd(os):
		return prefixBaseband
	case b.preFilterPrefix():
		return prefixPreFilter
	default:
		return prefixAntenna
	}
}

// groupWidth is the number of consecutive packets Run pushes through the
// front end and the Viterbi decoder together. Only antenna-boundary packets
// on the behavioral front end batch (rf.BatchReceiver); every other boundary
// and front end runs one packet per group.
func (b *Bench) groupWidth(boundary prefixBoundary) int {
	switch {
	case boundary != prefixAntenna || b.cfg.FrontEnd != FrontEndBehavioral:
		return 1
	case b.laneWidth > 0:
		return b.laneWidth
	default:
		return packetLanes
	}
}

// packetPrefix produces packet p's waveform at the prefix boundary along
// with its reference payload bits into lane ln, serving the invariant prefix
// from the cache when one is attached. Both are written over the lane's own
// storage (grown if short) and are safe to mutate: cache hits are copied
// out.
func (b *Bench) packetPrefix(p, os int, ln *packetLane) error {
	cached := func(kind uint8, withNoise bool, finish func(e *stageEntry)) error {
		v, err := b.cfg.Cache.GetOrCompute(b.stageKey(kind, p, os, withNoise),
			func() (any, int64, error) {
				e, err := b.fullPrefix(p, os, withNoise)
				if err != nil {
					return nil, 0, err
				}
				if finish != nil {
					finish(e)
				}
				return e, e.sizeBytes(), nil
			})
		if err != nil {
			return err
		}
		e := v.(*stageEntry)
		ln.refBits = append(ln.refBits[:0], e.refBits...)
		ln.wave = append(ln.wave[:0], e.wave...)
		return nil
	}
	switch b.boundary(os) {
	case prefixBaseband:
		// Baseband prefix: TX + channel + identity front end, noiseless.
		return cached(cacheKindBaseband, false, func(e *stageEntry) {
			b.fe.Reset()
			e.wave = append([]complex128(nil), b.fe.Process(e.wave)...)
		})

	case prefixPreFilter:
		// Pre-filter prefix: TX + channel (+ invariant noise) + the front-end
		// segment upstream of the channel-select filter. Bit-exact because
		// Receiver.Process is ProcessToFilter∘ProcessFromFilter and every
		// front-end noise/LO stream restarts per packet from fixed seeds.
		rx := b.fe.(*rf.Receiver)
		return cached(cacheKindPreFilter, b.cfg.ChannelSNRdB != nil, func(e *stageEntry) {
			rx.Reset()
			e.wave = rx.ProcessToFilter(e.wave)
		})
	}

	switch {
	case b.cfg.SweptStage >= StageNoise:
		// Antenna prefix: TX + channel, including the noise only when it is
		// invariant too (front-end sweeps with an explicit channel SNR).
		return cached(cacheKindAntenna, b.cfg.ChannelSNRdB != nil && !b.suffixNoise(), nil)

	case b.cfg.SweptStage == StageChannel:
		// TX prefix only: the channel is swept, the frame is not.
		v, err := b.cfg.Cache.GetOrCompute(b.stageKey(cacheKindTX, p, os, false),
			func() (any, int64, error) {
				psdu, frame, err := b.synthTX(p)
				if err != nil {
					return nil, 0, err
				}
				e := &stageEntry{
					refBits: bits.FromBytes(psdu),
					wave:    append([]complex128(nil), frame.Samples...),
				}
				return e, e.sizeBytes(), nil
			})
		if err != nil {
			return err
		}
		e := v.(*stageEntry)
		// The composer only reads emitter samples, so the cached frame
		// waveform is aliased, not copied.
		txFrame := phy.Frame{Samples: e.wave}
		x, err := b.composeChannel(ln.wave[:0], &txFrame, os, p)
		if err != nil {
			return err
		}
		ln.refBits = append(ln.refBits[:0], e.refBits...)
		ln.wave = x
		return nil

	default:
		// Everything depends on the swept parameter (or no sweep at all):
		// run the full chain into the lane.
		psdu, frame, err := b.synthTX(p)
		if err != nil {
			return err
		}
		x, err := b.composeChannel(ln.wave[:0], frame, os, p)
		if err != nil {
			return err
		}
		ln.refBits = bits.AppendFromBytes(ln.refBits[:0], psdu)
		ln.wave = x
		return nil
	}
}

// Run simulates the configured number of packets and returns the measured
// statistics. The pipeline is the five-stage chain documented on Stage; each
// packet's prefix (the stages before Config.SweptStage) may be served from
// Config.Cache, with identical results either way.
//
// Packets run in groups of consecutive packets, one lane each (groupWidth:
// up to packetLanes at the behavioral antenna boundary, one elsewhere). A
// group produces every lane's prefix and suffix noise in packet order, runs
// the front end once for all lanes (rf.BatchReceiver), equalizes each lane
// on its own DSP receiver and decodes the lanes' DATA fields in one
// lock-step Viterbi pass (rxdsp.DecodeDeferredBatch). Outcomes are counted
// in packet order and the lanes after a TargetErrors stop are dropped, so
// the Result is bit-identical for every group width.
func (b *Bench) Run() (*Result, error) {
	os := b.oversample()
	if b.fe == nil {
		fe, err := b.buildFrontEnd(os)
		if err != nil {
			return nil, err
		}
		b.fe = fe
	}
	mode, err := phy.ModeByRate(b.cfg.RateMbps)
	if err != nil {
		return nil, err
	}
	if b.tx == nil {
		b.tx = &phy.Transmitter{Mode: mode}
	}
	suffixNoise := b.suffixNoise()
	if suffixNoise {
		// The point-variant noise is one sequential stream per Run, rewound
		// by snapshot restore instead of a costly re-seed. Draw counts per
		// packet are fixed by the configuration, so packet p's noise is
		// independent of how many packets run after it.
		if !b.noiseMarked {
			// The mark snapshots the generator's current state, so it must be
			// planted right after seeding with the point's noise seed —
			// marking a differently seeded generator would hand every sweep
			// point the same noise realization.
			s := seed.ForStage(b.stageRoot(StageNoise), int(StageNoise), 0)
			if b.noiseRNG == nil {
				b.noiseRNG = randutil.NewRandDirect(s)
			} else {
				b.noiseRNG.Seed(s)
				b.noiseRNG.Mark()
			}
			b.noiseMarked = true
		}
		b.noiseRNG.Rewind()
	}
	boundary := b.boundary(os)
	width := min(b.groupWidth(boundary), b.cfg.Packets)
	b.growLanes(width, width > 1)
	res := &Result{OversampleFactor: os, FrontEnd: b.cfg.FrontEnd}
	var evm evmAccum

packets:
	for p := 0; p < b.cfg.Packets; p += width {
		lanes := b.lanes[:min(width, b.cfg.Packets-p)]
		waves := b.waves[:len(lanes)]
		for k := range lanes {
			ln := &lanes[k]
			if err := b.packetPrefix(p+k, os, ln); err != nil {
				return nil, err
			}
			if suffixNoise {
				b.addNoise(ln.wave, os, b.noiseRNG)
			}
			waves[k] = ln.wave
		}
		basebands := b.frontEnd(waves, boundary)

		pkts := b.pkts[:len(lanes)]
		for k := range lanes {
			pkts[k], lanes[k].rxErr = b.receiveDSP(lanes[k].rx, basebands[k], mode)
		}
		// One lock-step Viterbi pass over every deferred lane; a lane's
		// decode error is exactly the error its eager Receive would have
		// returned. Eagerly decoded lanes are skipped.
		derrs := rxdsp.DecodeDeferredBatch(b.rxs[:len(lanes)], pkts, &b.decode)
		for k := range lanes {
			rxErr := lanes[k].rxErr
			if rxErr == nil {
				rxErr = derrs[k]
			}
			if b.accountPacket(pkts[k], rxErr, lanes[k].refBits, mode, res, &evm) {
				break packets
			}
		}
	}
	evm.finish(res)
	return res, nil
}

// growLanes readies the first width packet lanes. Buffers and receivers
// persist across Runs; deferData selects whether the lanes' receivers leave
// the DATA decode to the group's lock-step Viterbi pass.
func (b *Bench) growLanes(width int, deferData bool) {
	for len(b.lanes) < width {
		var rx *rxdsp.Receiver
		if !b.cfg.UseIdealRxTiming {
			rx = rxdsp.NewReceiver()
			rx.HardDecisions = b.cfg.HardDecisions
			rx.DisableCSI = b.cfg.DisableCSI
			rx.ReuseBuffers = true
		}
		b.lanes = append(b.lanes, packetLane{rx: rx})
		b.rxs = append(b.rxs, rx)
		b.waves = append(b.waves, nil)
		b.pkts = append(b.pkts, nil)
	}
	for _, rx := range b.rxs {
		if rx != nil {
			rx.DeferDataDecode = deferData
		}
	}
}

// frontEnd runs the front-end suffix that follows the prefix boundary over
// one group's waveforms and returns the per-lane basebands. A group of
// several lanes is behavioral at the antenna boundary (groupWidth) and runs
// the batched front end; a single lane runs the sequential one, which is a
// few percent faster than the batch driver at one lane.
func (b *Bench) frontEnd(waves [][]complex128, boundary prefixBoundary) [][]complex128 {
	if len(waves) > 1 {
		if b.batchFE == nil {
			b.batchFE = rf.NewBatchReceiver(b.fe.(*rf.Receiver))
		}
		return b.batchFE.Process(waves)
	}
	switch boundary {
	case prefixBaseband:
		// SNR-sweep fast path: the wave is the noiseless post-front-end
		// baseband plus the noise just drawn.
	case prefixPreFilter:
		// Filter-sweep fast path: the wave already passed the pre-filter
		// front-end segment; only the channel-select filter and the blocks
		// after it run per point. Reset restores every block, but the
		// pre-filter ones are simply not used again this packet.
		rx := b.fe.(*rf.Receiver)
		rx.Reset()
		waves[0] = rx.ProcessFromFilter(waves[0])
	default:
		b.fe.Reset()
		waves[0] = b.fe.Process(waves[0])
	}
	return waves
}

// evmAccum accumulates per-packet decision-directed EVM measurements across
// one run; finish folds the accumulation into the result.
type evmAccum struct {
	acc     float64
	symbols int
}

func (e *evmAccum) finish(res *Result) {
	if e.symbols > 0 {
		res.EVM = measure.EVMResult{
			RMS:     math.Sqrt(e.acc / float64(e.symbols)),
			Symbols: e.symbols,
		}
	}
}

// receiveDSP runs the DSP receiver over one packet's baseband: rx, or the
// genie-timed ideal receiver when the scenario asks for it.
func (b *Bench) receiveDSP(rx *rxdsp.Receiver, baseband []complex128, mode phy.Mode) (*rxdsp.PacketResult, error) {
	if b.cfg.UseIdealRxTiming {
		if b.irx == nil {
			b.irx = &rxdsp.IdealReceiver{Mode: mode, PSDULen: b.cfg.PSDULen, ReuseBuffers: true}
		}
		return b.irx.Receive(baseband, leadInSamples)
	}
	rx.Reset()
	return rx.Receive(baseband, 0)
}

// accountPacket folds one packet's receive outcome into the result and EVM
// accumulator, returning whether the configured error target is reached.
func (b *Bench) accountPacket(pkt *rxdsp.PacketResult, rxErr error, refBits []byte, mode phy.Mode, res *Result, evm *evmAccum) bool {
	if rxErr != nil {
		res.Counter.AddLostPacket(len(refBits))
		return b.cfg.TargetErrors > 0 && res.Counter.Errors >= b.cfg.TargetErrors
	}
	b.gotBits = bits.AppendFromBytes(b.gotBits[:0], pkt.PSDU)
	res.Counter.AddPacket(refBits, b.gotBits)
	if ev, err := measure.EVM(pkt.EqualizedCarriers, mode.Modulation); err == nil {
		evm.acc += ev.RMS * ev.RMS * float64(ev.Symbols)
		evm.symbols += ev.Symbols
	}
	return b.cfg.TargetErrors > 0 && res.Counter.Errors >= b.cfg.TargetErrors
}
