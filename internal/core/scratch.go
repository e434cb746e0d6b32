package core

import "caraoke/internal/dsp"

// Scratch owns every reusable buffer of the capture-analysis and decode
// hot path: the DSP plan (FFT twiddle/bit-reversal and Bluestein chirp
// tables, spectral scratch), per-capture spectrum rows for the
// multi-query averager, the candidate-bin sets of the relaxed-sharpness
// sweep, the channel-estimate arena backing Spike.Channels, and
// per-worker plans for the parallel stages. A zero Scratch is ready to
// use; buffers grow on first use and are retained, so the steady state
// — same capture shape, epoch after epoch — allocates nothing.
//
// Contract: results returned by Scratch methods (the []Spike slice AND
// the Channels slices inside each Spike) are backed by scratch memory
// and remain valid only until the next call on the same Scratch.
// Callers that retain spikes past that point — e.g. queuing them into
// asynchronous telemetry — must deep-copy. The package-level
// AnalyzeCapture / AnalyzeCaptures wrappers run on a throwaway Scratch
// and therefore still hand ownership to the caller, exactly as before.
//
// A Scratch is NOT safe for concurrent use. The parallel stages inside
// AnalyzeCaptures hand each worker goroutine its own sub-scratch, so a
// single Scratch driven from one goroutine at a time is safe at any
// worker count.
type Scratch struct {
	plan dsp.Plan     // serial-stage DSP tables and buffers
	spec dsp.Spectrum // single-capture spectrum

	specs []dsp.Spectrum // per-capture spectra (multi-query averaging)
	views [][]complex128 // per-capture sample views for the batched FFT stage (cleared after use)
	acc   []float64      // power accumulator across captures
	avg   dsp.Spectrum   // RMS-averaged spectrum

	strict    map[int]bool // bins found by the strict sharpness sweep
	tentative map[int]bool // bins found only by the relaxed sweep

	chans   []complex128 // arena backing Spike.Channels
	spikes  []Spike      // result buffer
	results []Spike      // per-peak slots for the parallel merge
	keep    []bool       // which slots survived

	job peakJob // shared inputs of the per-peak stage (cleared after use)

	workers []workerScratch
}

// workerScratch is the per-goroutine slice of a Scratch: its own DSP
// plan (Goertzel-free stages share nothing, ClassifyBin needs its own
// probe buffer) plus the refinement and local-floor buffers.
type workerScratch struct {
	plan  dsp.Plan
	freqs []float64 // per-capture refined frequencies, for the median
	vals  []float64 // localFloor neighborhood magnitudes
}

// growWorkers ensures at least n per-worker scratches exist.
func (sc *Scratch) growWorkers(n int) {
	for len(sc.workers) < n {
		sc.workers = append(sc.workers, workerScratch{})
	}
}

// grow returns x resized to length n, reusing the backing array when
// the capacity suffices. Contents are unspecified.
func grow[T any](x []T, n int) []T {
	if cap(x) < n {
		return make([]T, n)
	}
	return x[:n]
}
