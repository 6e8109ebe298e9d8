package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"

	"wlansim/internal/bits"
	"wlansim/internal/channel"
	"wlansim/internal/core"
	"wlansim/internal/dsp"
	"wlansim/internal/measure"
	"wlansim/internal/phy"
	"wlansim/internal/phy/viterbi"
	"wlansim/internal/randutil"
	"wlansim/internal/rf"
	"wlansim/internal/rxdsp"
	"wlansim/internal/seed"
)

// The packet framing core.Bench uses: native-rate samples of silence (or
// interferer only) before the wanted packet, padding after it, and the fixed
// interferer payload length. A drift from core shows as a replay mismatch,
// which fails the traced run.
const (
	leadInSamples     = 600
	tailSamples       = 300
	interfererPSDULen = 200
)

// chain drives packets through the program's layers from outside, one
// public call per layer, so each call can be timed as a span. It mirrors
// core.Bench.Run for the scenarios the workloads use (behavioral front end,
// no antenna noise, no multipath or clock offsets); the traced runs check
// its results against core bit for bit.
type chain struct {
	cfg  core.Config
	mode phy.Mode
	os   int
	tr   *tracer

	tx       *phy.Transmitter
	frame    phy.Frame
	txRNG    *rand.Rand
	chRNG    *rand.Rand
	comp     *channel.Composer
	emitters []channel.Emitter
	antenna  []complex128
	rx       *rxdsp.Receiver
}

func newChain(cfg core.Config, tr *tracer) (*chain, error) {
	if cfg.FrontEnd != core.FrontEndBehavioral || cfg.ChannelSNRdB != nil || cfg.MultipathTaps > 0 ||
		cfg.SampleClockPPM != 0 || cfg.CFOHz != 0 {
		return nil, fmt.Errorf("replay chain: scenario outside the mirrored subset")
	}
	mode, err := phy.ModeByRate(cfg.RateMbps)
	if err != nil {
		return nil, err
	}
	maxOffset := 0.0
	for _, i := range cfg.Interferers {
		maxOffset = math.Max(maxOffset, math.Abs(i.OffsetHz))
	}
	os := 1
	if maxOffset > 0 {
		os = channel.MinOversample(maxOffset)
	}
	comp, err := channel.NewComposer(os)
	if err != nil {
		return nil, err
	}
	rx := rxdsp.NewReceiver()
	rx.ReuseBuffers = true
	return &chain{
		cfg: cfg, mode: mode, os: os, tr: tr,
		tx:    &phy.Transmitter{Mode: mode},
		txRNG: randutil.NewReseedingRand(0),
		chRNG: randutil.NewReseedingRand(0),
		comp:  comp,
		rx:    rx,
	}, nil
}

// rfConfig is the behavioral front-end configuration core builds for the
// scenario: defaults at the oversampling factor, the AGC start calibrated to
// the wanted level, then the scenario's TuneRF.
func rfConfig(cfg core.Config, os int) rf.ReceiverConfig {
	rc := rf.DefaultReceiverConfig(os)
	smallSignal := rc.LNA.GainDB + rc.Mixer1.ConversionGainDB + rc.Mixer2.ConversionGainDB
	rc.AGC.InitialGainDB = rc.AGC.TargetDBm - (cfg.WantedPowerDBm + smallSignal)
	if cfg.TuneRF != nil {
		cfg.TuneRF(&rc)
	}
	return rc
}

// synth produces packet p's antenna waveform with the TX and channel stages
// seeded from root, as core seeds its stages: the wanted PPDU (phy.tx), the
// interferer frames (channel.interferer) and the oversampled composition
// (channel.compose). It returns the reference payload bits; both slices are
// owned by the chain until the next call.
func (c *chain) synth(p int, root int64) ([]byte, []complex128, error) {
	tok := c.tr.begin("phy.tx")
	c.txRNG.Seed(seed.ForStage(root, int(core.StageTX), p))
	c.tx.ScramblerSeed = byte(1 + c.txRNG.Intn(127))
	psdu := bits.RandomBytesInto(c.frame.PSDU[:0], c.txRNG, c.cfg.PSDULen)
	err := c.tx.TransmitInto(&c.frame, psdu)
	c.tr.end(tok)
	if err != nil {
		return nil, nil, err
	}

	c.chRNG.Seed(seed.ForStage(root, int(core.StageChannel), p))
	totalNative := leadInSamples + len(c.frame.Samples) + tailSamples
	c.emitters = append(c.emitters[:0], channel.Emitter{
		Samples:      c.frame.Samples,
		PowerDBm:     c.cfg.WantedPowerDBm,
		DelaySamples: leadInSamples,
	})
	for _, spec := range c.cfg.Interferers {
		tok := c.tr.begin("channel.interferer")
		wave, err := interfererFrames(spec.RateMbps, totalNative, c.chRNG)
		c.tr.end(tok)
		if err != nil {
			return nil, nil, err
		}
		c.emitters = append(c.emitters, channel.Emitter{Samples: wave, OffsetHz: spec.OffsetHz, PowerDBm: spec.PowerDBm})
	}
	tok = c.tr.begin("channel.compose")
	x, err := c.comp.ComposeInto(c.antenna[:0], c.emitters)
	if err == nil {
		if want := totalNative * c.os; len(x) < want {
			x = append(x, make([]complex128, want-len(x))...)
		}
	}
	c.tr.end(tok)
	if err != nil {
		return nil, nil, err
	}
	c.antenna = x
	return bits.FromBytes(c.frame.PSDU), x, nil
}

// interfererFrames is the adjacent-channel emitter: back-to-back frames of
// random payload from one phy.Transmitter, cut to total native samples.
func interfererFrames(rateMbps, total int, rng *rand.Rand) ([]complex128, error) {
	if rateMbps == 0 {
		rateMbps = 24
	}
	tx, err := phy.NewTransmitter(rateMbps)
	if err != nil {
		return nil, err
	}
	var out []complex128
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

// tally accumulates what core.Bench.Run reports: the BER counter and the
// symbol-weighted mean EVM over delivered packets.
type tally struct {
	counter measure.BERCounter
	evmAcc  float64
	symbols int
}

// receive runs the DSP receiver on a baseband packet (rxdsp.receive) and
// folds the outcome into t (measure.account).
func (c *chain) receive(refBits []byte, baseband []complex128, t *tally) {
	tok := c.tr.begin("rxdsp.receive")
	c.rx.Reset()
	pkt, err := c.rx.Receive(baseband, 0)
	c.tr.end(tok)

	tok = c.tr.begin("measure.account")
	if err != nil {
		t.counter.AddLostPacket(len(refBits))
	} else {
		t.counter.AddPacket(refBits, bits.FromBytes(pkt.PSDU))
		if ev, err := measure.EVM(pkt.EqualizedCarriers, c.mode.Modulation); err == nil {
			t.evmAcc += ev.RMS * ev.RMS * float64(ev.Symbols)
			t.symbols += ev.Symbols
		}
	}
	c.tr.end(tok)
}

// result folds the tally into the form core.Result reports.
func (t *tally) result() core.Result {
	res := core.Result{Counter: t.counter}
	if t.symbols > 0 {
		res.EVM = measure.EVMResult{RMS: math.Sqrt(t.evmAcc / float64(t.symbols)), Symbols: t.symbols}
	}
	return res
}

// digest fingerprints a bench result bit for bit: the BER counter and the
// EVM's float bits.
func digest(r core.Result) uint64 {
	h := fnv.New64a()
	c := r.Counter
	fmt.Fprintf(h, "%d %d %d %d %d %x %d", c.Bits, c.Errors, c.Packets, c.PacketErrors, c.LostPackets,
		math.Float64bits(r.EVM.RMS), r.EVM.Symbols)
	return h.Sum64()
}

// rfBlocks is the behavioral front end assembled from its public blocks, so
// each block's Process can be timed on its own ("unfused replay": the
// production receiver runs the mixer segment fused on planar buffers).
type rfBlocks struct {
	lna    *rf.Amplifier
	mixer1 *rf.Mixer
	hpf    *rf.DCBlock
	mixer2 *rf.Mixer
	lpf    *rf.ChebyshevLowpass
	agc    *rf.AGC
	adc    *rf.ADC
	decim  *dsp.Downsampler
	out    []complex128
}

func newRFBlocks(cfg rf.ReceiverConfig) (*rfBlocks, error) {
	if cfg.DisableNoise || cfg.DCBlockCornerHz <= 0 || cfg.ChannelFilterOrder <= 0 {
		return nil, fmt.Errorf("rf replay: line-up outside the mirrored subset")
	}
	b := &rfBlocks{}
	var err error
	if b.lna, err = rf.NewAmplifier(cfg.LNA); err != nil {
		return nil, err
	}
	if b.mixer1, err = rf.NewMixer(cfg.Mixer1); err != nil {
		return nil, err
	}
	if b.hpf, err = rf.NewDCBlock(cfg.DCBlockCornerHz, cfg.SampleRateHz); err != nil {
		return nil, err
	}
	if b.mixer2, err = rf.NewMixer(cfg.Mixer2); err != nil {
		return nil, err
	}
	if b.lpf, err = rf.NewChebyshevLowpass(cfg.ChannelFilterOrder, cfg.ChannelFilterEdgeHz,
		cfg.ChannelFilterRippleDB, cfg.SampleRateHz); err != nil {
		return nil, err
	}
	if b.agc, err = rf.NewAGC(cfg.AGC); err != nil {
		return nil, err
	}
	if b.adc, err = rf.NewADC(cfg.ADC); err != nil {
		return nil, err
	}
	if b.decim, err = dsp.NewDownsampler(cfg.Oversample, 0, false); err != nil {
		return nil, err
	}
	return b, nil
}

// process runs x through every block in line-up order, each as one span.
func (b *rfBlocks) process(x []complex128, tr *tracer) []complex128 {
	b.lna.Reset()
	b.mixer1.Reset()
	b.hpf.Reset()
	b.mixer2.Reset()
	b.lpf.Reset()
	b.agc.Reset()
	b.adc.Reset()
	b.decim.Reset()
	step := func(name string, f func([]complex128) []complex128) {
		tok := tr.begin(name)
		x = f(x)
		tr.end(tok)
	}
	step("rf.lna", b.lna.Process)
	step("rf.mixer1", b.mixer1.Process)
	step("rf.hpf", b.hpf.Process)
	step("rf.mixer2", b.mixer2.Process)
	step("rf.lpf", b.lpf.Process)
	step("rf.agc", b.agc.Process)
	step("rf.adc", b.adc.Process)
	step("rf.decim", func(x []complex128) []complex128 {
		b.out = b.decim.ProcessInto(b.out[:0], x)
		return b.out
	})
	return x
}

// sameSamples reports whether two waveforms are identical bit for bit.
func sameSamples(a, b []complex128) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) ||
			math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
			return false
		}
	}
	return true
}

// viterbiReplay decodes a fixed soft stream of the workload's coded length,
// the DATA-field decode every delivered packet runs inside rxdsp.
type viterbiReplay struct {
	dec  *viterbi.Decoder
	soft []float64
	out  []byte
}

func newViterbiReplay(mode phy.Mode, psduLen int, rng *rand.Rand) *viterbiReplay {
	nBits := phy.ServiceBits + 8*psduLen + phy.TailBits
	nSym := (nBits + mode.NDBPS() - 1) / mode.NDBPS()
	soft := make([]float64, 2*nSym*mode.NDBPS())
	for i := range soft {
		soft[i] = float64(2*rng.Intn(2)-1) + 0.3*rng.NormFloat64()
	}
	return &viterbiReplay{dec: viterbi.New(), soft: soft}
}

func (v *viterbiReplay) run(tr *tracer) error {
	tok := tr.begin("phy.viterbi")
	out, err := v.dec.DecodeSoftInto(v.out[:0], v.soft)
	tr.end(tok)
	v.out = out
	return err
}
