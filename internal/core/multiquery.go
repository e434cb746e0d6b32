package core

import (
	"fmt"
	"math"
	"math/cmplx"
	"sort"

	"caraoke/internal/dsp"
	"caraoke/internal/rfsim"
)

// AnalyzeCaptures extracts transponder spikes from several collision
// captures of the *same* scene (successive reader queries). The §10
// duty cycle gives a reader ~10 queries per 10 ms active window, and
// using all of them sharpens every stage of the pipeline:
//
//   - Magnitude spectra average incoherently across queries. The
//     carrier spikes are stable (|h| does not change between queries)
//     while each transponder's OOK data contributes an independent
//     realization per query — its Rayleigh maxima shrink by √K
//     relative to the spikes, which is what keeps counting accurate at
//     40+ colliders.
//   - The §5 dual-window occupancy test is re-run on every capture and
//     majority-voted. Oscillator phases re-randomize at each reply, so
//     a same-bin pair that happens to beat invisibly in one query is
//     caught in the others.
//
// Channels are taken from the last capture (callers doing AoA on a
// specific query should use AnalyzeCapture on that capture).
func AnalyzeCaptures(mcs []*rfsim.MultiCapture, p Params) ([]Spike, error) {
	var sc Scratch
	return sc.AnalyzeCaptures(mcs, p, 1)
}

// AnalyzeCaptures is the pooled implementation behind the package-level
// AnalyzeCaptures, with an explicit worker count. The two expensive stages
// — one FFT per capture and the per-peak refinement/occupancy chain
// (a few dozen Goertzel filters per peak per capture) — are
// embarrassingly parallel; everything else stays serial. Per-capture
// spectra accumulate in capture order and per-peak results merge in
// peak order, so any worker count produces bit-identical spikes. Each
// worker goroutine runs on its own sub-scratch (DSP plan and buffers),
// so the pooled path is race-free at any worker count; the result obeys
// the Scratch ownership contract.
func (sc *Scratch) AnalyzeCaptures(mcs []*rfsim.MultiCapture, p Params, workers int) ([]Spike, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(mcs) == 0 {
		return nil, fmt.Errorf("core: no captures")
	}
	if len(mcs) == 1 {
		return sc.AnalyzeCapture(mcs[0], p)
	}
	n := 0
	for i, mc := range mcs {
		if mc == nil || len(mc.Antennas) == 0 || len(mc.Antennas[0]) == 0 {
			return nil, fmt.Errorf("core: capture %d is empty", i)
		}
		if n == 0 {
			n = len(mc.Antennas[0])
		} else if len(mc.Antennas[0]) != n {
			return nil, fmt.Errorf("core: capture %d length %d differs from %d", i, len(mc.Antennas[0]), n)
		}
	}
	if workers < 1 {
		workers = 1
	}
	sc.growWorkers(workers)
	// Root-mean-square magnitude spectrum across queries. Each worker
	// runs the batched SpectrumManyInto over one static contiguous chunk
	// of captures, amortizing the plan lookup and keeping the stage
	// tables cache-resident across its whole slice. Spectrum rows are
	// index-addressed, so the bits are the same at any worker count.
	for len(sc.specs) < len(mcs) {
		sc.specs = append(sc.specs, dsp.Spectrum{})
	}
	specs := sc.specs[:len(mcs)]
	views := grow(sc.views, len(mcs))
	sc.views = views
	for i, mc := range mcs {
		views[i] = mc.Antennas[0]
	}
	if workers <= 1 {
		// Closure-free serial path: the literal below escapes into
		// goroutines, so merely constructing it would heap-allocate
		// even when it ends up called inline.
		sc.workers[0].plan.SpectrumManyInto(specs, views, p.SampleRate)
	} else {
		// Capture the rate, not p: p's address is taken elsewhere, so
		// naming it here would capture it by reference and move the
		// whole Params to the heap on every call, serial path included.
		rate := p.SampleRate
		parallelChunksWorkers(len(mcs), workers, func(w, lo, hi int) {
			sc.workers[w].plan.SpectrumManyInto(specs[lo:hi], views[lo:hi], rate)
		})
	}
	for i := range views {
		views[i] = nil // don't pin the captures past this call
	}
	acc := grow(sc.acc, n)
	sc.acc = acc
	clear(acc)
	for qi := range specs {
		// The fused transform already produced |X[k]|² for every bin
		// (the same re·re+im·im this loop used to recompute).
		for k, pw := range specs[qi].Pows {
			acc[k] += pw
		}
	}
	sc.avg.SampleRate = p.SampleRate
	sc.avg.Bins = grow(sc.avg.Bins, n)
	sc.avg.Mags = grow(sc.avg.Mags, n)
	sc.avg.Pows = sc.avg.Pows[:0] // not maintained for the synthetic average
	avg := &sc.avg
	inv := 1 / float64(len(mcs))
	for k, pw := range acc {
		m := math.Sqrt(pw * inv)
		avg.Bins[k] = complex(m, 0)
		avg.Mags[k] = m
	}

	// On a K-query-averaged spectrum the floor is smooth (variance
	// shrinks with K), so the sensitive detector is a MAD-scaled
	// excess over the local median rather than a magnitude ratio: a
	// weak carrier at a large collision's floor adds only ~2.5× the
	// local level, but tens of MADs of the smoothed floor.
	peakP := p.Peaks
	peakP.Threshold = 2
	peakP.Sharpness = 1 // ratio test off; ExcessSigma selects
	peakP.ExcessSigma = 5
	peakP.SharpRadius = 16
	peaks := sc.plan.FindPeaks(avg, peakP)
	if p.ClockImageReject {
		peaks = rejectClockImages(peaks, avg.BinWidth(), p.ClockImageRatio)
	}

	last := mcs[len(mcs)-1]
	binW := avg.BinWidth()
	strongest := strongestMag(peaks)
	nAnt := len(last.Antennas)
	chans := grow(sc.chans, len(peaks)*nAnt)
	sc.chans = chans
	results := grow(sc.results, len(peaks))
	sc.results = results
	keep := grow(sc.keep, len(peaks))
	sc.keep = keep
	sc.job = peakJob{
		mcs:       mcs,
		p:         p,
		peaks:     peaks,
		last:      last,
		binW:      binW,
		strongest: strongest,
		nAnt:      nAnt,
		n:         n,
	}
	if workers <= 1 {
		// Closure-free serial path — see the spectrum stage above.
		for pi := range peaks {
			sc.refinePeak(0, pi)
		}
	} else {
		parallelForWorkers(len(peaks), workers, sc.refinePeak)
	}
	sc.job = peakJob{} // don't pin the captures past this call
	spikes := sc.spikes[:0]
	for pi := range results {
		if keep[pi] {
			spikes = append(spikes, results[pi])
		}
	}
	suppressResolvedNeighbors(spikes, binW, p.Occupancy.WindowFrac)
	sc.spikes = spikes
	return spikes, nil
}

// peakJob carries the shared inputs of the per-peak refinement stage so
// both the serial loop and the parallel fan-out reach them through the
// Scratch pointer alone. (A closure capturing these as locals would be
// heap-allocated per call — it escapes into worker goroutines — even
// when the serial path ends up invoking it inline.)
type peakJob struct {
	mcs       []*rfsim.MultiCapture
	p         Params
	peaks     []dsp.Peak
	last      *rfsim.MultiCapture
	binW      float64
	strongest float64
	nAnt      int
	n         int
}

// refinePeak runs the full per-peak chain — median refined frequency,
// channel estimates, occupancy vote, shoulder test, purity vote — for
// peak pi on worker w's scratch, writing into sc.results/sc.keep slot
// pi. Inputs come from sc.job; see peakJob.
func (sc *Scratch) refinePeak(w, pi int) {
	job := &sc.job
	ws := &sc.workers[w]
	mcs := job.mcs
	p := &job.p
	sc.keep[pi] = false
	pk := job.peaks[pi]
	// Median refined frequency across captures.
	freqs := ws.freqs[:0]
	for _, mc := range mcs {
		freqs = append(freqs, dsp.RefineFreq(mc.Antennas[0], p.SampleRate, pk))
	}
	ws.freqs = freqs
	sort.Float64s(freqs)
	freq := freqs[len(freqs)/2]

	nAnt := job.nAnt
	s := Spike{
		Freq:     freq,
		Bin:      pk.Bin,
		Mag:      pk.Mag,
		Channels: sc.chans[pi*nAnt : (pi+1)*nAnt : (pi+1)*nAnt],
	}
	scale := complex(2/float64(job.n), 0)
	for a, stream := range job.last.Antennas {
		s.Channels[a] = dsp.Goertzel(stream, freq/p.SampleRate) * scale
	}
	// Vote over the per-capture occupancy tests. Oscillator phases
	// re-randomize between queries, so a pair invisible in one
	// query beats in others; per-capture detection falls in large
	// collisions, while the per-capture false-positive rate stays
	// low — hence a 40 % quorum rather than a strict majority.
	votes := 0
	for _, mc := range mcs {
		if ws.plan.ClassifyBin(mc.Antennas[0], p.SampleRate, freq, p.Occupancy) == dsp.OccupancyMultiple {
			votes++
		}
	}
	s.Multiple = 10*votes >= 4*len(mcs)
	// Shoulder test: the DFT of a lone carrier has an exact null
	// ±1 bin from its refined frequency, while a second tone merged
	// into the same peak fills that null. RMS-average across
	// captures (CFOs are fixed; only phases change), with the
	// threshold raised above the collision floor for weak spikes.
	if !s.Multiple {
		var c2, s2 float64
		for _, mc := range mcs {
			st := mc.Antennas[0]
			c := cmplx.Abs(dsp.Goertzel(st, freq/p.SampleRate))
			lo := cmplx.Abs(dsp.Goertzel(st, (freq-job.binW)/p.SampleRate))
			hi := cmplx.Abs(dsp.Goertzel(st, (freq+job.binW)/p.SampleRate))
			c2 += c * c
			if lo > hi {
				s2 += lo * lo
			} else {
				s2 += hi * hi
			}
		}
		if c2 > 0 {
			shoulder := math.Sqrt(s2 / c2)
			// The expected shoulder of a lone carrier is set by
			// the local collision floor (max of two Rayleigh draws
			// ≈ 1.3× the per-bin level); require 2× headroom above
			// it before declaring a merged companion.
			local := localFloorInto(&sc.avg, pk.Bin, &ws.vals)
			thresh := 0.45
			if adaptive := 2.6 * local / math.Sqrt(c2/float64(len(mcs))); adaptive > thresh {
				thresh = adaptive
			}
			if shoulder > thresh {
				s.Multiple = true
			}
		}
	}
	// Tone-purity vote for weak spikes that look single: a carrier
	// is pure in every capture; a data-floor maximum is not.
	if !s.Multiple && pk.Mag < p.PurityMaxRel*job.strongest && p.PurityMin > 0 {
		pure := 0
		for _, mc := range mcs {
			if purity(mc.Antennas[0], p.SampleRate, freq, job.binW) >= p.PurityMin {
				pure++
			}
		}
		if pure*2 <= len(mcs) {
			return
		}
	}
	sc.results[pi] = s
	sc.keep[pi] = true
}

// localFloorInto estimates the collision floor near bin k as the median
// magnitude of the bins 3–16 away on each side, collecting them in the
// caller's reusable buffer.
func localFloorInto(spec *dsp.Spectrum, k int, buf *[]float64) float64 {
	n := len(spec.Bins)
	vals := (*buf)[:0]
	for d := 3; d <= 16; d++ {
		if k-d >= 0 {
			vals = append(vals, spec.Mag(k-d))
		}
		if k+d < n {
			vals = append(vals, spec.Mag(k+d))
		}
	}
	*buf = vals
	sort.Float64s(vals)
	if len(vals) == 0 {
		return 0
	}
	return vals[len(vals)/2]
}

func strongestMag(peaks []dsp.Peak) float64 {
	var m float64
	for _, pk := range peaks {
		if pk.Mag > m {
			m = pk.Mag
		}
	}
	return m
}

// CountAcrossQueries runs the counting pipeline over several successive
// collision captures (§10: a reader's active window collects ~10).
func CountAcrossQueries(mcs []*rfsim.MultiCapture, p Params) (CountResult, error) {
	spikes, err := AnalyzeCaptures(mcs, p)
	if err != nil {
		return CountResult{}, err
	}
	return CountFromSpikes(spikes), nil
}

// SpikePower returns the spike's channel power on the reference
// antenna, a proxy for proximity useful when ranking spikes.
func SpikePower(s Spike) float64 {
	if len(s.Channels) == 0 {
		return 0
	}
	return cmplx.Abs(s.Channels[0]) * cmplx.Abs(s.Channels[0])
}
