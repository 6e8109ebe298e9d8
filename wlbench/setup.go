package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"time"
)

// setupProbes is how many cold set-ups a run times for setup_s.
const setupProbes = 31

// probeTimeout caps one set-up probe.
const probeTimeout = 60 * time.Second

// probeReady is the line a set-up probe prints when its first op could be
// issued.
const probeReady = "ready"

// setupDone marks the end of a workload's set-up. In a set-up probe it
// reports ready to the parent and returns true: the runner then tears down
// what it built and returns without measuring.
func (o opts) setupDone() bool {
	if o.probe == nil {
		return false
	}
	fmt.Fprintln(o.probe, probeReady)
	return true
}

// coldSetups runs n set-up probes of the workload one after another, each a
// fresh process of this binary, and returns the median time from starting
// the process to its ready line, in seconds. Every probe is cold: it pays
// process start, package initialisation and all lazy construction (front
// ends, FFT plans, store open and recovery, listener) before its first op.
func coldSetups(workload string, seed int64, n int) (med float64, xs []float64, err error) {
	self, err := os.Executable()
	if err != nil {
		return 0, nil, err
	}
	for i := 0; i < n; i++ {
		d, err := probe(self, workload, seed)
		if err != nil {
			return 0, nil, err
		}
		xs = append(xs, d.Seconds())
	}
	return median(xs), xs, nil
}

// probe starts one set-up probe, times it until its ready line, and waits
// for it to tear down and exit.
func probe(self, workload string, seed int64) (time.Duration, error) {
	ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, "--workload", workload,
		"--seed", strconv.FormatInt(seed, 10), "--setup-probe")
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	var d time.Duration
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		if d == 0 && sc.Text() == probeReady {
			d = time.Since(t0)
		}
	}
	if err := cmd.Wait(); err != nil {
		return 0, fmt.Errorf("set-up probe: %w", err)
	}
	if d == 0 {
		return 0, errors.New("set-up probe exited without reporting ready")
	}
	return d, nil
}
