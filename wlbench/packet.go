package main

import (
	"fmt"
	"math/rand"
	"time"

	"wlansim/internal/core"
	"wlansim/internal/rf"
)

// packetsPerOp is the Monte-Carlo depth of one packet-b24 op: one
// Bench.Run of a multi-packet point, so packet-lane batching has packets
// to batch.
const packetsPerOp = 8

// packetConfig is the packet-b24 scenario: 24 Mbit/s, 100-octet PSDU at
// -62 dBm on the behavioral front end, no interferer, oversample 1.
func packetConfig(seed int64) core.Config {
	cfg := core.DefaultConfig()
	cfg.RateMbps = 24
	cfg.PSDULen = 100
	cfg.WantedPowerDBm = -62
	cfg.FrontEnd = core.FrontEndBehavioral
	cfg.Packets = packetsPerOp
	cfg.Seed = seed
	return cfg
}

// packetOK is the packet-b24 output check: every packet delivered with zero
// bit errors, and the result identical bit for bit to the seed's reference.
func packetOK(res *core.Result, ref uint64) bool {
	c := res.Counter
	return c.Packets == packetsPerOp && c.Errors == 0 && c.PacketErrors == 0 && c.LostPackets == 0 &&
		digest(*res) == ref
}

func runPacket(o opts) (*outcome, error) {
	cfg := packetConfig(o.seed)
	out := newOutcome()

	// Set-up: construct a bench and run one warm-up op, which builds the
	// front end, the DSP receiver and the FFT plans. The warm-up result is
	// the seed's reference.
	bench, err := core.NewBench(cfg)
	if err != nil {
		return nil, err
	}
	res, err := bench.Run()
	if err != nil {
		return nil, err
	}
	if c := res.Counter; c.Errors != 0 || c.LostPackets != 0 {
		return nil, fmt.Errorf("reference op has %d bit errors, %d lost packets", c.Errors, c.LostPackets)
	}
	ref := digest(*res)
	if o.setupDone() {
		return out, nil
	}
	if o.trace {
		return out, tracePacket(o, cfg, bench, ref, out)
	}

	var perPacketMS []float64
	rss := startRSS()
	start := time.Now()
	rate := newRateMeter(start)
	deadline := start.Add(seconds(o.seconds))
	for time.Now().Before(deadline) {
		t0 := time.Now()
		res, err := bench.Run()
		d := time.Since(t0)
		out.record(err == nil && packetOK(res, ref))
		perPacketMS = append(perPacketMS, d.Seconds()*1e3/packetsPerOp)
		rate.add(t0, t0.Add(d), packetsPerOp)
	}
	end := time.Now()
	wall := end.Sub(start).Seconds()
	out.e2e["rss_p90_mb"] = metric{rss.p90(), "MiB"}
	out.notef("rss_peak_mb %.4f MiB (VmHWM)", rssPeakMB())

	p90, ok90 := percentile(perPacketMS, 0.9)
	p99, ok := percentile(perPacketMS, 0.99)
	// p90: the median flips between the host's fast and slow phases.
	out.windowedLatency(perPacketMS, 0.9)
	out.e2e["throughput_per_s"] = metric{rate.sustained(end), "1/s"}
	out.notef("pkt_us_p50 %.4f us (%d ops of %d packets)", median(perPacketMS)*1e3, len(perPacketMS), packetsPerOp)
	out.notef("pkt_us_p90 %.4f us%s", p90*1e3, unsupported(ok90, len(perPacketMS)))
	out.notef("pkt_us_p99 %.4f us%s", p99*1e3, unsupported(ok, len(perPacketMS)))
	out.notef("packets_per_s_mean %.4f /s", float64(len(perPacketMS)*packetsPerOp)/wall)
	return out, nil
}

// unsupported flags a percentile with fewer than minBeyond samples beyond
// it, naming the highest one the n samples do support.
func unsupported(ok bool, n int) string {
	if ok {
		return ""
	}
	return fmt.Sprintf(" (FLAGGED: %d samples leave fewer than %d beyond this percentile; the highest supported is p%g)",
		n, minBeyond, 100*highestSupported(n))
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// tracePacket is the traced packet-b24 run. Its op is an outside-in replay
// of Bench.Run through the layers' public calls, alternately with spans on
// and off; the difference of the two medians is the tracing overhead. Each
// op's result must equal the bench's reference, and after each op the RF
// block chain and the Viterbi decode are replayed on their own.
func tracePacket(o opts, cfg core.Config, bench *core.Bench, ref uint64, out *outcome) error {
	tr := newTracer(false)
	ch, err := newChain(cfg, tr)
	if err != nil {
		return err
	}
	rc := rfConfig(cfg, ch.os)
	fe, err := rf.NewReceiver(rc)
	if err != nil {
		return err
	}
	blocks, err := newRFBlocks(rc)
	if err != nil {
		return err
	}
	blockTr := newTracer(true)
	vit := newViterbiReplay(ch.mode, cfg.PSDULen, rand.New(rand.NewSource(cfg.Seed)))

	replay := func() core.Result {
		var t tally
		for p := 0; p < cfg.Packets; p++ {
			refBits, wave, err := ch.synth(p, cfg.Seed)
			if err != nil {
				t.counter.AddLostPacket(8 * cfg.PSDULen)
				continue
			}
			fe.Reset()
			tok := tr.begin("rf.to_filter")
			x := fe.ProcessToFilter(wave)
			tr.end(tok)
			tok = tr.begin("rf.from_filter")
			bb := fe.ProcessFromFilter(x)
			tr.end(tok)
			ch.receive(refBits, bb, &t)
		}
		return t.result()
	}
	// blockCheck replays every packet's front end block by block and
	// compares with rf.Receiver.Process.
	var scratch []complex128
	blockCheck := func() bool {
		ok := true
		for p := 0; p < cfg.Packets; p++ {
			_, wave, err := ch.synth(p, cfg.Seed)
			if err != nil {
				return false
			}
			scratch = append(scratch[:0], wave...)
			fe.Reset()
			want := fe.Process(wave)
			got := blocks.process(scratch, blockTr)
			ok = ok && sameSamples(got, want)
			if vit.run(blockTr) != nil {
				ok = false
			}
		}
		return ok
	}

	var tracedMS, plainMS []float64
	deadline := time.Now().Add(seconds(o.seconds))
	for i := 0; time.Now().Before(deadline); i++ {
		tr.on = i%2 == 0
		root := tr.beginOp("core.op")
		t0 := time.Now()
		res := replay()
		d := time.Since(t0).Seconds() * 1e3
		tr.end(root)
		if tr.on {
			tracedMS = append(tracedMS, d)
		} else {
			plainMS = append(plainMS, d)
		}
		tr.on = false
		out.record(packetOK(&res, ref) && blockCheck())
	}
	replayOps := out.attempted

	// The go.* metrics describe the production op, so they are read around
	// a short phase of plain Bench.Run ops.
	before := readRuntime()
	ops := 0
	for end := time.Now().Add(seconds(o.seconds / 4)); time.Now().Before(end); ops++ {
		res, err := bench.Run()
		out.record(err == nil && packetOK(res, ref))
	}
	goLayer(out.layer, before, readRuntime(), ops)

	layers, opSec, nOps := tr.layerTotals()
	blockLayers, _, _ := blockTr.layerTotals()
	nBlockOps := float64(replayOps) // one block replay per op
	perOp := func(sec float64, n float64) float64 { return sec * 1e6 / n }
	covered := 0.0
	for name, sec := range layers {
		out.layer[name+"_us"] = metric{perOp(sec, float64(nOps)), "us"}
		covered += sec
	}
	for name, sec := range blockLayers {
		out.layer[name+"_us"] = metric{perOp(sec, nBlockOps), "us"}
	}
	out.layer["core.other_us"] = metric{perOp(opSec-covered, float64(nOps)), "us"}
	out.layer["trace.coverage"] = metric{covered / opSec, "ratio"}
	out.layer["trace.overhead_pct"] = metric{100 * (median(tracedMS) - median(plainMS)) / median(plainMS), "%"}
	out.notef("traced replay: %d ops with spans, %d without; RF block chain and Viterbi replayed after every op", len(tracedMS), len(plainMS))
	return nil
}
