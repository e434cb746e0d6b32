package dsp

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"sync"
	"testing"
)

// kernelSignal returns n samples of seeded complex Gaussian noise.
func kernelSignal(rng *rand.Rand, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

// radix2Ref is the pre-overhaul FFT kernel, kept here as the oracle
// the radix-4 production kernel is tested against: iterative radix-2
// Cooley-Tukey over the plan's bit-reversal permutation, with a strided
// walk of one shared e^{-2πi k/n} table and per-element conjugation on
// the inverse path.
type radix2Ref struct {
	p       *FFTPlan
	twiddle []complex128 // e^{-2πi k/n} for k in [0, n/2), strided by n/size per stage
}

func newRadix2Ref(p *FFTPlan) *radix2Ref {
	n := p.n
	r := &radix2Ref{p: p, twiddle: make([]complex128, n/2)}
	for k := 0; k < n/2; k++ {
		s, c := math.Sincos(-2 * math.Pi * float64(k) / float64(n))
		r.twiddle[k] = complex(c, s)
	}
	return r
}

// transform is the radix-2 counterpart of FFTPlan.Transform.
func (r *radix2Ref) transform(dst, src []complex128) {
	r.run(dst, src, false)
}

// inverse is the radix-2 counterpart of FFTPlan.Inverse.
func (r *radix2Ref) inverse(dst, src []complex128) {
	r.run(dst, src, true)
	inv := complex(1/float64(r.p.n), 0)
	for i := range dst {
		dst[i] *= inv
	}
}

func (r *radix2Ref) run(dst, src []complex128, inverse bool) {
	p := r.p
	if len(dst) != p.n || len(src) != p.n {
		panic(fmt.Sprintf("dsp: FFT buffer length %d/%d, plan length %d", len(dst), len(src), p.n))
	}
	p.bitrev(dst, src)
	for size := 2; size <= p.n; size <<= 1 {
		half := size >> 1
		step := p.n / size
		for start := 0; start < p.n; start += size {
			tw := 0
			for k := start; k < start+half; k++ {
				w := r.twiddle[tw]
				if inverse {
					w = complex(real(w), -imag(w))
				}
				odd := dst[k+half] * w
				dst[k+half] = dst[k] - odd
				dst[k] += odd
				tw += step
			}
		}
	}
}

// fillMagsPows is the unfused magnitude sweep the fused spectrum pass
// replaced — the baseline of BenchmarkSpectrumInto. Values are
// identical to the fused stores: the same binPow/Sqrt per bin.
func fillMagsPows(mags, pows []float64, bins []complex128) {
	for k, v := range bins {
		pw := binPow(v)
		pows[k] = pw
		mags[k] = math.Sqrt(pw)
	}
}

// maxBinDiff returns the largest per-bin |a[k]-b[k]|.
func maxBinDiff(a, b []complex128) float64 {
	var m float64
	for k := range a {
		if d := cmplx.Abs(a[k] - b[k]); d > m {
			m = d
		}
	}
	return m
}

// TestKernelMatchesNaiveRandomLengths is the property test of the
// overhaul: for random lengths — powers of two through the radix-4
// kernel, everything else through Bluestein — the transform must match
// the O(n²) naive DFT, and the inverse must round-trip.
func TestKernelMatchesNaiveRandomLengths(t *testing.T) {
	rng := rand.New(rand.NewSource(1001))
	lengths := []int{1, 2, 3, 4, 5, 7, 8, 16, 27, 32, 64, 100, 128, 256, 365, 512, 1024, 2048}
	for i := 0; i < 12; i++ {
		lengths = append(lengths, 3+rng.Intn(1500))
	}
	for _, n := range lengths {
		x := kernelSignal(rng, n)
		got := FFT(x)
		want := DFTNaive(x)
		scale := 0.0
		for _, v := range x {
			scale += cmplx.Abs(v)
		}
		tol := 1e-11 * (scale + 1)
		if d := maxBinDiff(got, want); d > tol {
			t.Errorf("n=%d: FFT vs naive DFT max bin diff %g > %g", n, d, tol)
		}
		back := IFFT(got)
		if d := maxBinDiff(back, x); d > tol {
			t.Errorf("n=%d: IFFT(FFT(x)) round-trip max diff %g > %g", n, d, tol)
		}
	}
}

// TestKernelParsevalRandomLengths checks energy conservation
// Σ|x|² = (1/n)Σ|X|² on both kernel paths.
func TestKernelParsevalRandomLengths(t *testing.T) {
	rng := rand.New(rand.NewSource(1002))
	for _, n := range []int{8, 64, 100, 331, 512, 777, 2048} {
		x := kernelSignal(rng, n)
		X := FFT(x)
		var et, ef float64
		for _, v := range x {
			et += real(v)*real(v) + imag(v)*imag(v)
		}
		for _, v := range X {
			ef += real(v)*real(v) + imag(v)*imag(v)
		}
		ef /= float64(n)
		if math.Abs(et-ef) > 1e-9*(et+1) {
			t.Errorf("n=%d: Parseval violated: time %g vs freq %g", n, et, ef)
		}
	}
}

// TestKernelVsRadix2OracleULP pins the radix-4 kernel to the radix-2
// reference within a tight rounding-error envelope, forward and
// inverse, at every power-of-two size the pipeline uses. The bound is
// relative to the spectrum's largest magnitude — a few dozen ULPs, far
// below anything a detection threshold can see.
func TestKernelVsRadix2OracleULP(t *testing.T) {
	rng := rand.New(rand.NewSource(1003))
	for n := 1; n <= 4096; n <<= 1 {
		p, err := NewFFTPlan(n)
		if err != nil {
			t.Fatal(err)
		}
		r2 := newRadix2Ref(p)
		x := kernelSignal(rng, n)
		fwd := make([]complex128, n)
		ref := make([]complex128, n)
		p.Transform(fwd, x)
		r2.transform(ref, x)
		var peak float64
		for _, v := range ref {
			if m := cmplx.Abs(v); m > peak {
				peak = m
			}
		}
		tol := 64 * 0x1p-52 * (peak + 1)
		if d := maxBinDiff(fwd, ref); d > tol {
			t.Errorf("n=%d forward: radix-4 vs radix-2 max bin diff %g > %g", n, d, tol)
		}
		inv := make([]complex128, n)
		invRef := make([]complex128, n)
		p.Inverse(inv, fwd)
		r2.inverse(invRef, ref)
		if d := maxBinDiff(inv, invRef); d > 64*0x1p-52*(maxAbs(invRef)+1) {
			t.Errorf("n=%d inverse: radix-4 vs radix-2 max diff %g", n, d)
		}
	}
}

func maxAbs(x []complex128) float64 {
	var m float64
	for _, v := range x {
		if a := cmplx.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// TestTransformManyMatchesTransform checks the batched entry point
// frame by frame, and that a warmed plan batches without allocating
// even when interleaved across lengths (plans are per-length; the
// caller switching lengths must not disturb a warmed plan's
// steady state).
func TestTransformManyMatchesTransform(t *testing.T) {
	rng := rand.New(rand.NewSource(1004))
	p256, _ := NewFFTPlan(256)
	p64, _ := NewFFTPlan(64)
	src256 := kernelSignal(rng, 4*256)
	src64 := kernelSignal(rng, 3*64)
	dst256 := make([]complex128, len(src256))
	dst64 := make([]complex128, len(src64))
	p256.TransformMany(dst256, src256)
	p64.TransformMany(dst64, src64)
	for f := 0; f < 4; f++ {
		want := make([]complex128, 256)
		p256.Transform(want, src256[f*256:(f+1)*256])
		for k := range want {
			if dst256[f*256+k] != want[k] {
				t.Fatalf("frame %d bin %d: TransformMany %v != Transform %v", f, k, dst256[f*256+k], want[k])
			}
		}
	}
	if got := testing.AllocsPerRun(20, func() {
		p256.TransformMany(dst256, src256)
		p64.TransformMany(dst64, src64)
	}); got != 0 {
		t.Errorf("TransformMany across two warmed plans: %.1f allocs/op, want 0", got)
	}
}

// TestFFTRegistryConcurrency hammers the process-wide plan registry
// from many goroutines across a mix of fresh lengths (first-use
// publication races) and shared ones. Run under -race this is the
// registry's data-race test; results are checked against a serially
// computed reference.
func TestFFTRegistryConcurrency(t *testing.T) {
	rng := rand.New(rand.NewSource(1005))
	lengths := []int{16384, 8192, 2048, 64, 100, 48}
	inputs := make([][]complex128, len(lengths))
	want := make([][]complex128, len(lengths))
	for i, n := range lengths {
		inputs[i] = kernelSignal(rng, n)
		want[i] = FFT(inputs[i])
	}
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 4; rep++ {
				i := (g + rep) % len(lengths)
				got := FFT(inputs[i])
				for k := range got {
					if got[k] != want[i][k] {
						errs <- "concurrent FFT result differs from serial"
						return
					}
				}
				back := IFFT(got)
				tol := 1e-9 * float64(lengths[i])
				for k := range back {
					if cmplx.Abs(back[k]-inputs[i][k]) > tol {
						errs <- "concurrent IFFT round-trip out of tolerance"
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestSpectrumIntoFusedCaches checks the fused pass contract: bins
// bit-identical to the allocating NewSpectrum, and the Mags/Pows caches
// exactly equal to the one canonical magnitude expression — on the
// radix-4 path and the Bluestein path.
func TestSpectrumIntoFusedCaches(t *testing.T) {
	rng := rand.New(rand.NewSource(1006))
	for _, n := range []int{2048, 8, 4, 600} {
		x := kernelSignal(rng, n)
		pl := NewPlan()
		var s Spectrum
		pl.SpectrumInto(&s, x, 4e6)
		if len(s.Mags) != n || len(s.Pows) != n {
			t.Fatalf("n=%d: caches not filled (%d/%d)", n, len(s.Mags), len(s.Pows))
		}
		for k, v := range s.Bins {
			if pw := binPow(v); s.Pows[k] != pw || s.Mags[k] != math.Sqrt(pw) {
				t.Fatalf("n=%d bin %d: cache mismatch", n, k)
			}
		}
		ref := NewSpectrum(x, 4e6)
		for k := range ref.Bins {
			if s.Bins[k] != ref.Bins[k] {
				t.Fatalf("n=%d bin %d: fused bins %v != NewSpectrum %v", n, k, s.Bins[k], ref.Bins[k])
			}
		}
	}
}

// BenchmarkFFTPlan is the kernel microbench of the perf trajectory:
// the radix-4 production kernel against the radix-2 reference
// at the capture length, plus the batched and fused entry points.
func BenchmarkFFTPlan(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	const n = 2048
	p, _ := NewFFTPlan(n)
	src := kernelSignal(rng, n)
	dst := make([]complex128, n)
	b.Run("radix4", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p.Transform(dst, src)
		}
	})
	b.Run("radix2ref", func(b *testing.B) {
		r2 := newRadix2Ref(p)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r2.transform(dst, src)
		}
	})
	b.Run("inverse", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p.Inverse(dst, src)
		}
	})
	batch := kernelSignal(rng, 10*n)
	batchDst := make([]complex128, 10*n)
	b.Run("many10", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p.TransformMany(batchDst, batch)
		}
	})
}

// BenchmarkSpectrumInto measures the fused transform+magnitude pass
// against the unfused transform-then-sweep it replaced.
func BenchmarkSpectrumInto(b *testing.B) {
	rng := rand.New(rand.NewSource(43))
	const n = 2048
	src := kernelSignal(rng, n)
	pl := NewPlan()
	var s Spectrum
	pl.SpectrumInto(&s, src, 4e6)
	b.Run("fused", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pl.SpectrumInto(&s, src, 4e6)
		}
	})
	b.Run("unfused", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.SampleRate = 4e6
			s.Bins = growComplexSlice(s.Bins, n)
			pl.FFTInto(s.Bins, src)
			s.Mags = growFloatSlice(s.Mags, n)
			s.Pows = growFloatSlice(s.Pows, n)
			fillMagsPows(s.Mags, s.Pows, s.Bins)
		}
	})
}
