package dsp

import (
	"fmt"
	"math"
)

// Plan is a per-worker DSP scratch: it caches FFT twiddle/bit-reversal
// tables (and Bluestein chirp tables for non-power-of-two lengths) by
// transform length and owns the reusable magnitude, sort, neighborhood,
// reference-probe, and peak buffers the spectral pipeline otherwise
// allocates per call. Once a plan has seen a capture shape, re-running
// the same shape through FFTInto, SpectrumInto, FindPeaks, and
// ClassifyBin allocates nothing.
//
// Every pooled method is bit-identical to its allocating package-level
// counterpart (FFT, NewSpectrum, FindPeaks, ClassifyBin): the same
// arithmetic runs in the same order over the same values, only the
// buffer lifetimes differ. The allocating entry points remain as
// determinism oracles and for one-shot callers.
//
// A Plan is NOT safe for concurrent use: give each worker goroutine its
// own. The zero value is ready to use. Slices returned by FindPeaks are
// owned by the plan and are valid only until its next call; callers
// that retain them must copy.
type Plan struct {
	ffts  map[int]*FFTPlan
	blues map[int]*bluesteinPlan

	mags   []float64 // per-bin magnitude cache, bin order
	sorted []float64 // sort scratch for the noise-floor median
	neigh  []float64 // FindPeaks neighborhood statistics
	refs   []float64 // ClassifyBin self-calibration probes
	peaks  []Peak    // FindPeaks result buffer
}

// NewPlan returns an empty plan; tables and buffers grow on demand and
// are retained across calls.
func NewPlan() *Plan { return &Plan{} }

// fftPlan returns the power-of-two plan for length n. The plan-local
// map is a lock-free fast path over the process-wide registry, so
// workers share one immutable table set per length instead of each
// building their own.
func (pl *Plan) fftPlan(n int) *FFTPlan {
	if p, ok := pl.ffts[n]; ok {
		return p
	}
	p, err := cachedPlan(n)
	if err != nil {
		panic(fmt.Sprintf("dsp: %v", err))
	}
	if pl.ffts == nil {
		pl.ffts = make(map[int]*FFTPlan)
	}
	pl.ffts[n] = p
	return p
}

// bluePlan returns the cached Bluestein plan for an arbitrary length n.
func (pl *Plan) bluePlan(n int) *bluesteinPlan {
	if p, ok := pl.blues[n]; ok {
		return p
	}
	p := newBluesteinPlan(n)
	if pl.blues == nil {
		pl.blues = make(map[int]*bluesteinPlan)
	}
	pl.blues[n] = p
	return p
}

// FFTInto computes the forward DFT of src into dst (both length
// len(src)), bit-identical to FFT(src) at any length: power-of-two
// lengths run the cached Cooley-Tukey plan, others the cached Bluestein
// chirp-z tables. dst and src may alias only for power-of-two lengths.
func (pl *Plan) FFTInto(dst, src []complex128) {
	n := len(src)
	if len(dst) != n {
		panic(fmt.Sprintf("dsp: FFTInto dst length %d, src length %d", len(dst), n))
	}
	if n == 0 {
		return
	}
	if n&(n-1) == 0 {
		pl.fftPlan(n).Transform(dst, src)
		return
	}
	pl.bluePlan(n).forward(dst, src)
}

// SpectrumInto computes the spectrum of a capture into s, reusing
// s.Bins when its capacity suffices, and fills the s.Mags/s.Pows
// derived caches in the same pass: power-of-two lengths write them
// from the final butterfly stage while the outputs are still in
// registers, Bluestein lengths from the final unchirp loop. Bins are
// bit-identical to NewSpectrum(samples, sampleRate), and the caches
// equal math.Sqrt(binPow(bin)) / binPow(bin) exactly.
func (pl *Plan) SpectrumInto(s *Spectrum, samples []complex128, sampleRate float64) {
	n := len(samples)
	s.SampleRate = sampleRate
	s.Bins = growComplexSlice(s.Bins, n)
	s.Mags = growFloatSlice(s.Mags, n)
	s.Pows = growFloatSlice(s.Pows, n)
	if n == 0 {
		return
	}
	if n&(n-1) == 0 {
		pl.fftPlan(n).transformSpectrum(s.Bins, s.Mags, s.Pows, samples)
		return
	}
	pl.bluePlan(n).forwardSpectrum(s.Bins, s.Mags, s.Pows, samples)
}

// SpectrumManyInto computes one spectrum per capture, the batched
// detection-path entry point: the FFT plan is resolved once per run of
// equal-length captures (instead of one map probe per capture) and the
// stage-major twiddle tables stay cache-resident from one capture to
// the next. Each specs[i] gets the identical result SpectrumInto would
// produce for captures[i]. len(specs) must equal len(captures).
func (pl *Plan) SpectrumManyInto(specs []Spectrum, captures [][]complex128, sampleRate float64) {
	if len(specs) != len(captures) {
		panic(fmt.Sprintf("dsp: SpectrumManyInto specs length %d, captures length %d", len(specs), len(captures)))
	}
	var fp *FFTPlan
	for i, samples := range captures {
		n := len(samples)
		if n == 0 || n&(n-1) != 0 {
			pl.SpectrumInto(&specs[i], samples, sampleRate)
			continue
		}
		s := &specs[i]
		s.SampleRate = sampleRate
		s.Bins = growComplexSlice(s.Bins, n)
		s.Mags = growFloatSlice(s.Mags, n)
		s.Pows = growFloatSlice(s.Pows, n)
		if fp == nil || fp.n != n {
			fp = pl.fftPlan(n)
		}
		fp.transformSpectrum(s.Bins, s.Mags, s.Pows, samples)
	}
}

// NoiseFloor is the pooled equivalent of Spectrum.NoiseFloor: the
// median bin magnitude. Both share one magnitude sweep
// (Spectrum.magsInto), which reuses the fused s.Mags cache when valid;
// only the sort scratch differs — plan-owned here, allocated there.
func (pl *Plan) NoiseFloor(s *Spectrum) float64 {
	if len(s.Bins) == 0 {
		return 0
	}
	pl.sorted = s.magsInto(pl.sorted)
	return medianFloat(pl.sorted)
}

// FindPeaks is the pooled equivalent of the package-level FindPeaks:
// identical peaks, but the magnitude cache, neighborhood scratch, and
// the returned slice all live in the plan. The result is valid until
// the plan's next FindPeaks call.
func (pl *Plan) FindPeaks(s *Spectrum, p PeakParams) []Peak {
	n := len(s.Bins)
	if n == 0 {
		return nil
	}
	if p.Threshold <= 0 {
		p.Threshold = 4
	}
	if p.MinSeparation <= 0 {
		p.MinSeparation = 1
	}
	if p.Sharpness <= 0 {
		p.Sharpness = 4
	}
	if p.SharpGuard <= 0 {
		p.SharpGuard = 2
	}
	if p.SharpRadius <= p.SharpGuard {
		p.SharpRadius = p.SharpGuard + 6
	}
	limit := n
	if p.MaxFreq > 0 {
		limit = int(p.MaxFreq/s.BinWidth()) + 1
		if limit > n {
			limit = n
		}
	}
	// Per-bin magnitudes: the fused s.Mags cache is used directly when
	// valid (it holds exactly math.Sqrt(binPow(bin)), the same value
	// computed here), so a SpectrumInto-produced spectrum pays no
	// magnitude sweep at all.
	var mags []float64
	if len(s.Mags) == n {
		mags = s.Mags
	} else {
		pl.mags = growFloatSlice(pl.mags, n)
		mags = pl.mags
		for i, v := range s.Bins {
			mags[i] = math.Sqrt(binPow(v))
		}
	}
	pl.sorted = growFloatSlice(pl.sorted, n)
	sorted := pl.sorted
	copy(sorted, mags)
	floor := medianFloat(sorted)
	cut := floor * p.Threshold
	peaks := pl.peaks[:0]
	neighborhood := pl.neigh[:0]
	for k := 0; k < limit; k++ {
		m := mags[k]
		if m <= cut {
			continue
		}
		isMax := true
		for d := 1; d <= p.MinSeparation && isMax; d++ {
			if k-d >= 0 && mags[k-d] > m {
				isMax = false
			}
			if k+d < n && mags[k+d] >= m {
				isMax = false
			}
		}
		if !isMax {
			continue
		}
		neighborhood = neighborhood[:0]
		for d := p.SharpGuard + 1; d <= p.SharpRadius; d++ {
			if k-d >= 0 {
				neighborhood = append(neighborhood, mags[k-d])
			}
			if k+d < n {
				neighborhood = append(neighborhood, mags[k+d])
			}
		}
		if len(neighborhood) > 0 {
			local := medianFloat(neighborhood)
			if p.Sharpness != 1 && local > 0 && m < p.Sharpness*local {
				continue
			}
			if p.ExcessSigma > 0 {
				for i := range neighborhood {
					neighborhood[i] = math.Abs(neighborhood[i] - local)
				}
				mad := medianFloat(neighborhood)
				if floorGuard := 0.02 * local; mad < floorGuard {
					mad = floorGuard
				}
				if m-local < p.ExcessSigma*mad {
					continue
				}
			}
		}
		peaks = append(peaks, Peak{Bin: k, Freq: s.BinFreq(k), Val: s.Bins[k], Mag: m})
	}
	if p.MinRelToStrongest > 0 && len(peaks) > 1 {
		var strongest float64
		for _, pk := range peaks {
			if pk.Mag > strongest {
				strongest = pk.Mag
			}
		}
		kept := peaks[:0]
		for _, pk := range peaks {
			if pk.Mag >= p.MinRelToStrongest*strongest {
				kept = append(kept, pk)
			}
		}
		peaks = kept
	}
	pl.neigh = neighborhood[:0]
	pl.peaks = peaks
	return peaks
}

// ClassifyBin is the pooled equivalent of the package-level
// ClassifyBin: identical classification, with the reference-probe
// magnitudes collected in plan-owned scratch.
func (pl *Plan) ClassifyBin(samples []complex128, sampleRate, freqHz float64, p OccupancyParams) Occupancy {
	occ, refs := classifyBin(samples, sampleRate, freqHz, p, pl.refs[:0])
	pl.refs = refs[:0]
	return occ
}

// bluesteinPlan caches the length-dependent tables of the forward
// Bluestein chirp-z transform: the chirp sequence and the FFT of the
// convolution kernel, plus the two length-m work buffers. One plan
// serves one transform length.
type bluesteinPlan struct {
	n     int
	chirp []complex128 // e^{-πi k²/n}
	fb    []complex128 // FFT of the kernel sequence b
	a     []complex128 // work: chirp-premultiplied, zero-padded input
	fa    []complex128 // work: forward FFT / convolution result
	fft   *FFTPlan     // power-of-two plan of the padded length m
}

// newBluesteinPlan precomputes the tables exactly as bluestein(x,
// false) does per call, so the pooled transform is bit-identical to
// the allocating one.
func newBluesteinPlan(n int) *bluesteinPlan {
	chirp := make([]complex128, n)
	for k := 0; k < n; k++ {
		kk := (int64(k) * int64(k)) % int64(2*n)
		s, c := math.Sincos(-math.Pi * float64(kk) / float64(n))
		chirp[k] = complex(c, s)
	}
	m := 1
	for m < 2*n-1 {
		m <<= 1
	}
	b := make([]complex128, m)
	for k := 0; k < n; k++ {
		cc := complex(real(chirp[k]), -imag(chirp[k]))
		b[k] = cc
		if k > 0 {
			b[m-k] = cc
		}
	}
	fft, err := cachedPlan(m)
	if err != nil {
		panic(fmt.Sprintf("dsp: %v", err))
	}
	fb := make([]complex128, m)
	fft.Transform(fb, b)
	return &bluesteinPlan{
		n:     n,
		chirp: chirp,
		fb:    fb,
		a:     make([]complex128, m),
		fa:    make([]complex128, m),
		fft:   fft,
	}
}

// forward evaluates the forward DFT of src into dst, reusing the
// cached tables. dst and src must both have length n and not alias.
func (bp *bluesteinPlan) forward(dst, src []complex128) {
	bp.convolve(src)
	for k := 0; k < bp.n; k++ {
		dst[k] = bp.fa[k] * bp.chirp[k]
	}
}

// forwardSpectrum is forward with the magnitude/power stores fused
// into the final unchirp loop — the Bluestein arm of the fused
// SpectrumInto pass. Bins are identical to forward's.
func (bp *bluesteinPlan) forwardSpectrum(dst []complex128, mags, pows []float64, src []complex128) {
	bp.convolve(src)
	for k := 0; k < bp.n; k++ {
		v := bp.fa[k] * bp.chirp[k]
		dst[k] = v
		pw := binPow(v)
		pows[k] = pw
		mags[k] = math.Sqrt(pw)
	}
}

// convolve runs the shared chirp-premultiply → FFT → kernel product →
// inverse FFT steps, leaving the convolution result in bp.fa.
func (bp *bluesteinPlan) convolve(src []complex128) {
	for k := 0; k < bp.n; k++ {
		bp.a[k] = src[k] * bp.chirp[k]
	}
	clear(bp.a[bp.n:])
	bp.fft.Transform(bp.fa, bp.a)
	for i := range bp.fa {
		bp.fa[i] *= bp.fb[i]
	}
	bp.fft.Inverse(bp.fa, bp.fa)
}

// growComplexSlice returns x resized to length n, reusing its backing
// array when the capacity suffices. Contents are unspecified.
func growComplexSlice(x []complex128, n int) []complex128 {
	if cap(x) < n {
		return make([]complex128, n)
	}
	return x[:n]
}

// growFloatSlice returns x resized to length n, reusing its backing
// array when the capacity suffices. Contents are unspecified. The
// signature mirrors growComplexSlice — value in, value out; callers
// reassign — rather than the old pointer+return hybrid, which let one
// call site keep a stale alias of a reallocated buffer.
func growFloatSlice(x []float64, n int) []float64 {
	if cap(x) < n {
		return make([]float64, n)
	}
	return x[:n]
}
