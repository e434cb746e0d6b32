package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"caraoke/internal/geom"
	"caraoke/internal/phy"
	"caraoke/internal/telemetry"
	"caraoke/internal/transponder"
)

// Shape of the synthetic telemetry the ingest and query workloads
// send, taken from the reference city: about eight spikes per report
// (its §5 count averages 9 per reader-epoch, its spike count 7.7), one
// channel estimate per antenna of the triangle array, a decode on
// every fifth epoch, and a few spikes the dual-window test flags as
// multiple.
const (
	meanSpikes   = 8.0
	antennas     = 3
	decodedShare = 1.0 / cityDecodeEvery
	multipleFrac = 0.05
	cfoJitterHz  = 50.0
)

// fleet is the population synthetic reports sight: transponder ids and
// their CFOs above the reader LO, drawn from the empirical carrier
// distribution the city uses.
type fleet struct {
	ids  []uint64
	cfos []float64
}

func newFleet(rng *rand.Rand, n int) fleet {
	pop := transponder.DefaultPopulationParams()
	f := fleet{ids: make([]uint64, 0, n), cfos: make([]float64, 0, n)}
	seen := make(map[uint64]bool, n)
	for len(f.ids) < n {
		d := transponder.NewRandomDevice(pop, rng.Uint64(), geom.Vec3{}, rng)
		if id := d.ID(); id != 0 && !seen[id] {
			seen[id] = true
			f.ids = append(f.ids, id)
			f.cfos = append(f.cfos, d.CFO(phy.BandLow))
		}
	}
	return f
}

// spikes draws one report's spike records: a Poisson number of fleet
// cars, each with its CFO plus measurement jitter, one random channel
// per antenna, and, with probability decodedShare, its decoded id.
func (f fleet) spikes(rng *rand.Rand) []telemetry.SpikeRecord {
	n := poisson(rng, meanSpikes)
	out := make([]telemetry.SpikeRecord, n)
	for i := range out {
		car := rng.Intn(len(f.ids))
		ch := make([]complex128, antennas)
		for a := range ch {
			ph := 2 * math.Pi * rng.Float64()
			mag := 1e-4 * (0.5 + rng.Float64())
			ch[a] = complex(mag*math.Cos(ph), mag*math.Sin(ph))
		}
		out[i] = telemetry.SpikeRecord{
			FreqHz:   f.cfos[car] + cfoJitterHz*rng.NormFloat64(),
			Multiple: rng.Float64() < multipleFrac,
			Channels: ch,
		}
		if rng.Float64() < decodedShare {
			out[i].DecodedID = f.ids[car]
		}
	}
	return out
}

// cellOf is the grid cell a synthetic reader homes by: readers pair up
// per intersection, as in the city.
func cellOf(id uint32) string {
	ix := (id - 1) / 2
	return fmt.Sprintf("cell-%d-%d", ix%16, ix/16)
}

// readerIDs returns ids 1..n.
func readerIDs(n int) []uint32 {
	ids := make([]uint32, n)
	for i := range ids {
		ids[i] = uint32(i + 1)
	}
	return ids
}

// epochTime stamps epoch e of synthetic traffic that starts at base.
func epochTime(base time.Time, e int) time.Time { return base.Add(time.Duration(e) * time.Second) }
