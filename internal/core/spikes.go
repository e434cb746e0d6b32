package core

import (
	"fmt"
	"math"
	"math/cmplx"

	"caraoke/internal/dsp"
	"caraoke/internal/rfsim"
)

// Spike is one transponder's footprint in a collision capture: its CFO
// and the complex channel it presents to each reader antenna. The
// channel is recovered from the spike value via R(Δf) = h/2 (§3, Eq 5).
type Spike struct {
	Freq     float64      // refined CFO estimate, Hz above the reader LO
	Bin      int          // FFT bin of the spike on the reference antenna
	Mag      float64      // spike magnitude on the reference antenna
	Channels []complex128 // per-antenna channel estimates ĥ
	// Multiple marks bins where the §5 dual-window test detected two
	// or more transponders sharing the bin.
	Multiple bool
}

// AnalyzeCapture extracts the transponder spikes from a multi-antenna
// collision capture: peak detection on the reference antenna (element
// 0), sub-bin frequency refinement, per-antenna channel estimation at
// the refined frequency, Manchester clock-image rejection, and the
// dual-window occupancy test. It runs on a throwaway Scratch, so the
// returned spikes (and their Channels) are caller-owned; per-worker hot
// paths hold a Scratch and call its method directly.
func AnalyzeCapture(mc *rfsim.MultiCapture, p Params) ([]Spike, error) {
	var sc Scratch
	return sc.AnalyzeCapture(mc, p)
}

// AnalyzeCapture is the pooled single-capture analysis. It is
// bit-identical to the package-level function — the same detection,
// refinement, channel-estimation, and occupancy arithmetic in the same
// order — but every intermediate (spectrum, magnitudes, peak
// neighborhoods, occupancy probes, channel estimates, the spike slice
// itself) lives in the Scratch. The result is valid until the next
// call on sc; see the Scratch contract.
func (sc *Scratch) AnalyzeCapture(mc *rfsim.MultiCapture, p Params) ([]Spike, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if mc == nil || len(mc.Antennas) == 0 {
		return nil, fmt.Errorf("core: capture has no antenna streams")
	}
	ref := mc.Antennas[0]
	n := len(ref)
	if n == 0 {
		return nil, fmt.Errorf("core: empty capture")
	}
	// The tentative set survives from the previous call; empty it
	// without allocating. It is only ever populated by the relaxed
	// sweep below (a nil map reads as empty).
	clear(sc.tentative)
	sc.plan.SpectrumInto(&sc.spec, ref, p.SampleRate)
	spec := &sc.spec
	binW := spec.BinWidth()
	peaks := sc.plan.FindPeaks(spec, p.Peaks)
	// Second, relaxed-sharpness sweep: carriers barely above a large
	// collision's data floor. These candidates must later prove
	// themselves a tone or a beating pair.
	if p.RelaxedSharpness > 0 && p.RelaxedSharpness < p.Peaks.Sharpness {
		// Record the strict winners first: the relaxed sweep reuses the
		// plan's peak buffer.
		if sc.strict == nil {
			sc.strict = make(map[int]bool, len(peaks))
		}
		clear(sc.strict)
		for _, pk := range peaks {
			sc.strict[pk.Bin] = true
		}
		relaxed := p.Peaks
		relaxed.Sharpness = p.RelaxedSharpness
		all := sc.plan.FindPeaks(spec, relaxed)
		for _, pk := range all {
			if !sc.strict[pk.Bin] {
				if sc.tentative == nil {
					sc.tentative = make(map[int]bool)
				}
				sc.tentative[pk.Bin] = true
			}
		}
		peaks = all
	}
	if p.ClockImageReject {
		peaks = rejectClockImages(peaks, binW, p.ClockImageRatio)
	}
	nAnt := len(mc.Antennas)
	chans := grow(sc.chans, len(peaks)*nAnt)
	sc.chans = chans
	spikes := sc.spikes[:0]
	for pi, pk := range peaks {
		freq := dsp.RefineFreq(ref, p.SampleRate, pk)
		s := Spike{
			Freq:     freq,
			Bin:      pk.Bin,
			Mag:      pk.Mag,
			Channels: chans[pi*nAnt : (pi+1)*nAnt : (pi+1)*nAnt],
		}
		// ĥ = 2·R(Δf)/N: the spike value is half the channel times the
		// capture length (Manchester's 0.5-mean envelope).
		scale := complex(2/float64(n), 0)
		for a, stream := range mc.Antennas {
			s.Channels[a] = dsp.Goertzel(stream, freq/p.SampleRate) * scale
		}
		// The occupancy test self-calibrates its tolerances from the
		// capture so other transponders' data does not masquerade as a
		// same-bin collision.
		s.Multiple = sc.plan.ClassifyBin(ref, p.SampleRate, freq, p.Occupancy) == dsp.OccupancyMultiple
		if sc.tentative[pk.Bin] && !s.Multiple && p.PurityMin > 0 {
			if purity(ref, p.SampleRate, freq, binW) < p.PurityMin {
				continue // neither tone-like nor a beating pair
			}
		}
		spikes = append(spikes, s)
	}
	if p.PurityMin > 0 && p.PurityMaxRel > 0 {
		spikes = rejectImpureGhosts(ref, p, binW, spikes)
	}
	suppressResolvedNeighbors(spikes, binW, p.Occupancy.WindowFrac)
	sc.spikes = spikes
	return spikes, nil
}

// suppressResolvedNeighbors clears the Multiple flag of spikes whose
// "companion" is simply another already-detected spike. The occupancy
// test's analysis windows are 1/WindowFrac× shorter than the capture,
// so two tones up to ~1/WindowFrac fine bins apart beat inside one
// window bin even though the full-length FFT resolves them as two
// separate peaks; counting both the two peaks and the beat would
// double-count.
func suppressResolvedNeighbors(spikes []Spike, binWidth, windowFrac float64) {
	if windowFrac <= 0 || windowFrac > 1 {
		windowFrac = 0.25
	}
	reach := (1/windowFrac + 1) * binWidth
	for i := range spikes {
		if !spikes[i].Multiple {
			continue
		}
		for j := range spikes {
			if i == j {
				continue
			}
			if math.Abs(spikes[i].Freq-spikes[j].Freq) < reach {
				spikes[i].Multiple = false
				break
			}
		}
	}
}

// purity measures how tone-like the signal at freq is: the ratio of the
// DFT magnitude at freq to the larger of the magnitudes 0.75 bins to
// either side. A pure tone scores ≈1/|sinc(0.75)| ≈ 3.3; broadband data
// humps score ≈1.
func purity(ref []complex128, sampleRate, freq, binWidth float64) float64 {
	center := cmplx.Abs(dsp.Goertzel(ref, freq/sampleRate))
	lo := cmplx.Abs(dsp.Goertzel(ref, (freq-0.75*binWidth)/sampleRate))
	hi := cmplx.Abs(dsp.Goertzel(ref, (freq+0.75*binWidth)/sampleRate))
	side := lo
	if hi > side {
		side = hi
	}
	if side == 0 {
		return math.Inf(1)
	}
	return center / side
}

// rejectImpureGhosts drops weak single-looking spikes that fail the
// tone-purity test: the DFT magnitude 0.75 bins to either side of a
// genuine carrier falls to ≈30 % (Dirichlet sidelobe), while a
// broadband data hump stays roughly flat. Only spikes below
// PurityMaxRel of the strongest are tested, so the occupancy-based
// same-bin counting of §5 is untouched for real devices.
func rejectImpureGhosts(ref []complex128, p Params, binWidth float64, spikes []Spike) []Spike {
	var strongest float64
	for _, s := range spikes {
		if s.Mag > strongest {
			strongest = s.Mag
		}
	}
	out := spikes[:0]
	for _, s := range spikes {
		if s.Multiple || s.Mag >= p.PurityMaxRel*strongest {
			out = append(out, s)
			continue
		}
		if purity(ref, p.SampleRate, s.Freq, binWidth) < p.PurityMin {
			continue // broadband ghost, not a carrier
		}
		out = append(out, s)
	}
	return out
}

// rejectClockImages removes weak peaks that lie one Manchester bit rate
// (±500 kHz, within ±2 bins) from a peak at least 1/ratio times
// stronger. A transponder whose payload is locally unbalanced leaves a
// residual clock line at that offset; it is data structure, not a
// device.
func rejectClockImages(peaks []dsp.Peak, binWidth, ratio float64) []dsp.Peak {
	const clockHz = 500e3 // 1 / BitDuration
	tol := 2 * binWidth
	out := peaks[:0]
	for _, pk := range peaks {
		image := false
		for _, other := range peaks {
			if other.Bin == pk.Bin || pk.Mag >= ratio*other.Mag {
				continue
			}
			if math.Abs(math.Abs(pk.Freq-other.Freq)-clockHz) <= tol {
				image = true
				break
			}
		}
		if !image {
			out = append(out, pk)
		}
	}
	return out
}

// CountResult is the outcome of the §5 counting estimator.
type CountResult struct {
	// Count is the estimated number of transponders: one per spike,
	// two for spikes whose bin failed the single-occupancy test.
	Count int
	// Spikes carries the underlying per-transponder measurements.
	Spikes []Spike
}

// CountTransponders runs the counting pipeline of §5 on a capture.
func CountTransponders(mc *rfsim.MultiCapture, p Params) (CountResult, error) {
	spikes, err := AnalyzeCapture(mc, p)
	if err != nil {
		return CountResult{}, err
	}
	return CountFromSpikes(spikes), nil
}

// CountFromSpikes applies the §5 counting rule to extracted spikes:
// a single-occupancy spike is one car, a multi-occupancy spike is
// counted as two (three-or-more sharing one bin is the estimator's
// residual error mode, Eq 9).
func CountFromSpikes(spikes []Spike) CountResult {
	count := 0
	for _, s := range spikes {
		if s.Multiple {
			count += 2
		} else {
			count++
		}
	}
	return CountResult{Count: count, Spikes: spikes}
}
