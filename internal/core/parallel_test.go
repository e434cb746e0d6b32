package core

import (
	"fmt"
	"reflect"
	"testing"

	"caraoke/internal/phy"
	"caraoke/internal/rfsim"
	"caraoke/internal/transponder"
)

// cannedSource replays pre-generated collision captures, so serial and
// parallel decoders consume byte-identical query sequences.
func cannedSource(caps []*rfsim.MultiCapture) CaptureSource {
	i := 0
	return func() ([]complex128, error) {
		mc := caps[i%len(caps)]
		i++
		return mc.Reference(), nil
	}
}

// decodeFixture builds a shared collision scene with well-separated
// CFOs plus the spike frequencies the decoders should target.
func decodeFixture(t testing.TB, seed int64, nDevs, nCaps int) ([]*rfsim.MultiCapture, []float64, []*transponder.Device, Params) {
	s := newTestScene(t, seed)
	devs := s.placedDevices(nDevs)
	for i, d := range devs {
		// Spread the CFOs evenly across the band's lower MHz so every
		// device yields a clean, decodable spike.
		d.CarrierHz = phy.BandLow + 150e3 + float64(i)*(1.0e6/float64(nDevs))
	}
	spikes, err := AnalyzeCaptures(s.collideQueries(devs, 5), s.param)
	if err != nil {
		t.Fatal(err)
	}
	if len(spikes) != nDevs {
		t.Fatalf("fixture found %d spikes for %d devices", len(spikes), nDevs)
	}
	freqs := make([]float64, len(spikes))
	for i, sp := range spikes {
		freqs[i] = sp.Freq
	}
	caps := make([]*rfsim.MultiCapture, nCaps)
	for i := range caps {
		caps[i] = s.collide(devs)
	}
	return caps, freqs, devs, s.param
}

func TestAnalyzeCapturesParallelMatchesSerial(t *testing.T) {
	s := newTestScene(t, 811)
	devs := s.placedDevices(12)
	mcs := s.collideQueries(devs, 10)
	serial, err := AnalyzeCaptures(mcs, s.param)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		var sc Scratch
		par, err := sc.AnalyzeCaptures(mcs, s.param, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(serial, par) {
			t.Errorf("workers=%d: parallel spikes diverge from serial (%d vs %d spikes)",
				workers, len(par), len(serial))
		}
	}
}

func TestDecodeAllParallelMatchesSerial(t *testing.T) {
	caps, freqs, devs, param := decodeFixture(t, 907, 4, 120)
	serial, err := DecodeAll(cannedSource(caps), param.SampleRate, freqs, len(caps))
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(devs) {
		t.Fatalf("serial decoded %d of %d", len(serial), len(devs))
	}
	for _, workers := range []int{0, 2, 4, 8} {
		par, err := DecodeAllParallel(cannedSource(caps), param.SampleRate, freqs, len(caps), workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(par) != len(serial) {
			t.Fatalf("workers=%d: decoded %d of %d", workers, len(par), len(serial))
		}
		for f, want := range serial {
			got, ok := par[f]
			if !ok {
				t.Errorf("workers=%d: CFO %.0f Hz missing", workers, f)
				continue
			}
			if got.Frame.ID() != want.Frame.ID() || got.Queries != want.Queries {
				t.Errorf("workers=%d: CFO %.0f Hz decoded (%#x, %d queries), serial (%#x, %d queries)",
					workers, f, got.Frame.ID(), got.Queries, want.Frame.ID(), want.Queries)
			}
		}
	}
}

func TestDecodeAllParallelErrors(t *testing.T) {
	src := func() ([]complex128, error) { return make([]complex128, 2048), nil }
	if _, err := DecodeAllParallel(src, 4e6, []float64{1e5}, 0, 4); err == nil {
		t.Error("zero maxQueries accepted")
	}
	if _, err := DecodeAllParallel(src, 4e6, nil, 5, 4); err == nil {
		t.Error("no targets accepted")
	}
	out, err := DecodeAllParallel(src, 4e6, []float64{1e5, 2e5}, 3, 4)
	if err == nil {
		t.Error("undecodable targets reported as success")
	}
	if len(out) != 0 {
		t.Errorf("%d unexpected decodes", len(out))
	}
}

// BenchmarkDecodeAll compares the serial §8 decode-everything path with
// the worker-pool variant at several pool sizes. The captures are
// pre-generated, so the benchmark isolates the combine/decode hot path
// (Goertzel channel estimate + CFO derotation + demodulation per
// target per collision). On a ≥4-core machine the parallel path should
// win roughly linearly until targets run out:
//
//	go test -bench BenchmarkDecodeAll -run ^$ ./internal/core/
func BenchmarkDecodeAll(b *testing.B) {
	caps, freqs, _, param := decodeFixture(b, 907, 8, 40)
	for _, workers := range []int{1, 2, 4, 8} {
		name := fmt.Sprintf("workers=%d", workers)
		if workers == 1 {
			name = "serial"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := decodeAllWorkers(cannedSource(caps), param.SampleRate, freqs, len(caps), workers)
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAnalyzeCaptures compares the serial multi-query DSP chain
// (per-capture FFT, then per-peak refinement) with the worker-pool
// variant used by Reader.Measure in the city harness. A persistent
// Scratch mirrors the reader's steady state: tables and buffers are
// warm after the first iteration.
func BenchmarkAnalyzeCaptures(b *testing.B) {
	s := newTestScene(b, 811)
	devs := s.placedDevices(24)
	mcs := s.collideQueries(devs, 10)
	for _, workers := range []int{1, 2, 4, 8} {
		name := fmt.Sprintf("workers=%d", workers)
		if workers == 1 {
			name = "serial"
		}
		b.Run(name, func(b *testing.B) {
			var sc Scratch
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sc.AnalyzeCaptures(mcs, s.param, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
