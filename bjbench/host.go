package main

import (
	"fmt"
	"os"
	"runtime/debug"
	"slices"
	"strings"
	"syscall"
	"time"
)

// The host-speed reference. A shared VM's speed drifts over minutes while a
// process's CPU time keeps matching its wall time, so the drift is the host
// running slower, not the benchmark being descheduled. A fixed stdlib-only
// kernel timed at every round barrier measures that drift, and every timing
// of the round is scaled by refNominal / (the kernel's local time).

// refNominal is the reference kernel's typical duration in seconds on the
// machine the benchmark was calibrated on (2-vCPU x86-64 VM). It only fixes
// the unit of adjusted timings: any constant gives the same ratios.
const refNominal = 2.5e-3

// Kernel shape: fill refWords words from a xorshift stream, sort them, then
// insert refKeys of them into a map. The map is sized at start-up, so a
// sample allocates nothing.
const (
	refWords = 1 << 15
	refKeys  = 1 << 12
	// refReps kernel runs make one barrier sample.
	refReps = 9
	// refCPUSlack flags a kernel run whose process CPU time exceeds its wall
	// time by more than this share: some other goroutine ran during it.
	refCPUSlack = 0.10
)

// host owns the reference kernel's buffers and every sample taken.
type host struct {
	words   []uint64
	keys    map[uint64]struct{}
	sink    uint64
	seed    uint64
	all     []float64 // every unflagged kernel time, for host.ref_s
	flagged int
}

func newHost() *host {
	return &host{
		words: make([]uint64, refWords),
		keys:  make(map[uint64]struct{}, refKeys),
		seed:  0x9e3779b97f4a7c15,
	}
}

// kernel runs the reference work once.
func (h *host) kernel() {
	h.seed = h.seed*6364136223846793005 + 1442695040888963407
	x := h.seed | 1
	for i := range h.words {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		h.words[i] = x
	}
	slices.Sort(h.words)
	clear(h.keys)
	for _, w := range h.words[:refKeys] {
		h.keys[w>>7] = struct{}{}
	}
	h.sink += uint64(len(h.keys)) ^ h.words[refWords/2]
}

// sample takes one barrier sample: a full GC that also returns free memory
// to the OS first, so no collector work runs beside the kernel and the next
// round starts from the live heap, then refReps timed kernel runs. It
// returns the unflagged run times in seconds (all of them if every run was
// flagged). Afterwards the kernel's peak-RSS mark is reset, so roundPeakMB
// reads the next round's own peak.
func (h *host) sample() []float64 {
	debug.FreeOSMemory()
	var ok, bad []float64
	for i := 0; i < refReps; i++ {
		c0 := cpuSeconds()
		t0 := time.Now()
		h.kernel()
		wall := time.Since(t0).Seconds()
		cpu := cpuSeconds() - c0
		if cpu > wall*(1+refCPUSlack) {
			h.flagged++
			bad = append(bad, wall)
			continue
		}
		ok = append(ok, wall)
	}
	if len(bad) > 0 {
		fmt.Fprintf(os.Stderr, "bjbench: %d of %d reference runs used more CPU than wall time; other goroutines were running\n", len(bad), refReps)
	}
	if len(ok) == 0 {
		ok = bad
	}
	h.all = append(h.all, ok...)
	resetPeakRSS()
	return ok
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// resetPeakRSS restarts the kernel's peak-RSS mark (VmHWM) at the current
// RSS. Where /proc does not allow it, roundPeakMB reads the process peak.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// roundPeakMB is the peak resident set size in MB since the last reset:
// VmHWM from /proc/self/status, or ru_maxrss where that is unavailable.
func roundPeakMB() float64 {
	if status, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(status), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				var kb float64
				if _, err := fmt.Sscanf(strings.TrimSpace(v), "%f kB", &kb); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
