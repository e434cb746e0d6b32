// Package city is the city-scale simulation harness the paper's §1 and
// §4 motivate: not one reader at one intersection, but a seeded grid of
// intersections whose pole-mounted readers run concurrently, each
// synthesizing its own collision captures from the vehicles inside its
// interrogation zone and streaming telemetry reports over real TCP
// into the collector backend. It is the scaffold the production-scale
// load work drives: each reader runs its measurement pipeline (capture
// synthesis → FFT → spike extraction → §5 count → optional §8
// collision decode → uplink) as an independent goroutine pair, so a
// reader's epoch N+1 capture overlaps its epoch N decode and uplink
// and no reader ever waits on another — the paper's §10/§12.5
// deployment model, where every reader duty-cycles independently and
// ships results over a cheap backhaul. A coordinator goroutine owns
// the shared world (vehicle kinematics, the §9 claim partition) and
// hands each reader per-epoch device snapshots through a bounded
// queue; the collector ingests the resulting out-of-order batches
// keyed by (ReaderID, Seq). Config.Lockstep restores the legacy
// global per-epoch barrier as the determinism oracle.
//
// The harness is deterministic: all randomness flows from Config.Seed
// through per-subsystem RNG streams (one for city construction, one per
// reader), each reader consumes its stream in epoch order against
// frozen snapshots, and every cross-goroutine merge happens in a fixed
// order — two runs with the same configuration, pipelined or lockstep,
// produce identical per-intersection counts and identical decoded-id
// sets, which is what makes the harness usable as a regression
// scenario and not just a demo.
package city

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"sort"
	"sync"
	"time"

	"caraoke/internal/clock"
	"caraoke/internal/cluster"
	"caraoke/internal/collector"
	"caraoke/internal/geom"
	"caraoke/internal/reader"
	"caraoke/internal/telemetry"
	"caraoke/internal/transponder"
)

// margin is how far (meters) each street extends beyond its outermost
// intersection before wrapping; vehicles leaving one end re-enter the
// other, keeping the fleet size constant for the whole run.
const margin = 60

// baseTime anchors simulated timestamps (the morning of the paper's
// Fig 12 traffic trace). A fixed epoch keeps reports, and therefore
// collector state, identical across runs.
var baseTime = time.Date(2015, 8, 17, 8, 0, 0, 0, time.UTC)

// Config sizes the city and its workload. Zero fields take the
// documented defaults, so callers only set what they care about.
type Config struct {
	// Readers is the number of pole-mounted readers. Intersections get
	// two each (one per crossing street); an odd count leaves the last
	// intersection with a single reader.
	Readers int
	// Vehicles is the number of cars circulating on the street grid.
	Vehicles int
	// Parked adds stationary curbside cars near intersection 0 — the
	// street-parking workload (occupancy + find-my-car).
	Parked int
	// Duration is simulated time (default 30s).
	Duration time.Duration
	// Step is the vehicle-kinematics tick (default 100ms).
	Step time.Duration
	// Epoch is the measurement cadence: every epoch each reader runs
	// one §10 active window (default 1s).
	Epoch time.Duration
	// Queries per active window (§10 allows up to 10; default 10).
	Queries int
	// Workers is each reader's DSP worker-pool size (default 1 =
	// serial; results are identical for any value).
	Workers int
	// Seed drives every random choice in the run; any value,
	// including zero, is a valid (and reproducible) seed.
	Seed int64
	// Block is the street-grid spacing in meters (default 200).
	Block float64
	// Range is the interrogation radius in meters a reader claims
	// transponders within (default 30, the paper's ~100 ft).
	Range float64
	// NoiseSigma is the per-sample receiver noise (default 2e-6).
	NoiseSigma float64
	// UnequippedFrac is the fraction of vehicles NOT carrying a
	// transponder. The zero value means every car is equipped; US
	// deployments run 0.11–0.30 unequipped (§1). (Phrased negatively
	// so the meaningful "all equipped" case is the Go zero value and
	// no default remapping is needed.)
	UnequippedFrac float64
	// DecodeEvery runs the §8 collision decoder every k-th epoch
	// (default 5; negative disables decoding).
	DecodeEvery int
	// DecodeBudget caps the collisions combined per decode run
	// (default 120).
	DecodeBudget int
	// Keep is the collector's per-reader report retention (default
	// 8192).
	Keep int
	// Shards is the collector store's shard count (default: the
	// collector's DefaultShards). Results are identical for any value.
	Shards int
	// Partitions is the collector-tier process count of the run's
	// cluster (internal/cluster); 0 or 1 = one partition. Readers home
	// onto partitions by consistent-hashing their intersection's grid
	// cell, uplinks route to the home partition, and queries merge
	// across partitions. Merged query answers are identical for any
	// partition count.
	Partitions int
	// Batch is how many telemetry reports a reader coalesces into one
	// batch frame before flushing its uplink (default 1 = a single-
	// report frame per epoch, the legacy wire behavior). Results are
	// identical for any value; only framing and syscall counts change.
	Batch int
	// Lockstep restores the legacy run loop: every reader marches
	// through a global barrier each epoch (capture → decode → uplink,
	// then wait for all readers) so the slowest reader sets the city's
	// clock. It is the determinism oracle for the default pipelined
	// mode — both produce identical Results for the same seed.
	Lockstep bool
	// Pipeline is the per-reader epoch lookahead in pipelined mode: how
	// many epochs a fast reader may run ahead of the slowest before the
	// coordinator stops feeding it (default 4). Bounded lookahead keeps
	// the snapshot working set proportional to Readers × Pipeline.
	// Results are identical for any depth.
	Pipeline int
	// DrainTimeout bounds the end-of-run wait for every uplinked report
	// to land in the collector. Zero scales the default with the run
	// size (epochs × readers) so a city-day drain is not failed by a
	// wall-clock constant sized for a smoke test.
	DrainTimeout time.Duration
	// Chaos switches on the failure model: uplink fault injection,
	// reader churn, and clock drift (see chaos.go). The zero value is
	// the clean run — bit-identical to a build without this field.
	Chaos Chaos

	// measureDelay, when set, injects wall-clock latency into a
	// reader's epoch before it measures — the test/bench hook that
	// models duty-cycle dwell, backhaul jitter, or a deliberately slow
	// reader. Simulated time and therefore results are unaffected.
	measureDelay func(readerID uint32, epoch int) time.Duration
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Duration == 0 {
		c.Duration = 30 * time.Second
	}
	if c.Step == 0 {
		c.Step = 100 * time.Millisecond
	}
	if c.Epoch == 0 {
		c.Epoch = time.Second
	}
	if c.Queries == 0 {
		c.Queries = 10
	}
	if c.Workers == 0 {
		c.Workers = 1
	}
	if c.Block == 0 {
		c.Block = 200
	}
	if c.Range == 0 {
		c.Range = 30
	}
	if c.NoiseSigma == 0 {
		c.NoiseSigma = 2e-6
	}
	if c.DecodeEvery == 0 {
		c.DecodeEvery = 5
	}
	if c.DecodeBudget == 0 {
		c.DecodeBudget = 120
	}
	if c.Keep == 0 {
		c.Keep = 8192
	}
	if c.Batch == 0 {
		c.Batch = 1
	}
	if c.Pipeline == 0 {
		c.Pipeline = 4
	}
	return c
}

func (c *Config) validate() error {
	if c.Readers < 1 {
		return fmt.Errorf("city: need at least one reader, got %d", c.Readers)
	}
	if c.Vehicles < 0 || c.Parked < 0 {
		return fmt.Errorf("city: negative fleet (%d vehicles, %d parked)", c.Vehicles, c.Parked)
	}
	if c.Step <= 0 || c.Epoch < c.Step || c.Duration < c.Epoch {
		return fmt.Errorf("city: need step ≤ epoch ≤ duration, got %v / %v / %v", c.Step, c.Epoch, c.Duration)
	}
	if c.Queries < 1 {
		return fmt.Errorf("city: queries %d must be positive", c.Queries)
	}
	if c.UnequippedFrac < 0 || c.UnequippedFrac > 1 {
		return fmt.Errorf("city: unequipped fraction %g outside [0,1]", c.UnequippedFrac)
	}
	if c.Block <= 0 || c.Range <= 0 {
		return fmt.Errorf("city: block %g and range %g must be positive", c.Block, c.Range)
	}
	if c.Batch < 0 || c.Shards < 0 {
		return fmt.Errorf("city: batch %d and shards %d must be non-negative", c.Batch, c.Shards)
	}
	if c.Pipeline < 0 || c.DrainTimeout < 0 {
		return fmt.Errorf("city: pipeline %d and drain timeout %v must be non-negative", c.Pipeline, c.DrainTimeout)
	}
	if c.Partitions < 0 {
		return fmt.Errorf("city: partitions %d must be non-negative", c.Partitions)
	}
	if c.Chaos.KillAtSeq > 0 && c.Partitions < 2 {
		return fmt.Errorf("city: killing a partition needs a partitioned run (partitions %d)", c.Partitions)
	}
	if c.Partitions >= 2 && c.Chaos.KillAtSeq > 0 && c.Chaos.KillPartition >= c.Partitions {
		return fmt.Errorf("city: kill partition %d outside [0,%d)", c.Chaos.KillPartition, c.Partitions)
	}
	return c.Chaos.validate()
}

// street is one road of the grid. Vehicles wrap at length; world
// coordinate along the street is s − margin.
type street struct {
	horizontal bool
	fixed      float64 // y (horizontal) or x (vertical)
	length     float64
}

// vehicle is one circulating car.
type vehicle struct {
	dev    *transponder.Device // nil when unequipped
	street int
	s      float64 // position along the street, wraps at length
	speed  float64 // m/s, constant per vehicle
}

// post is one deployed reader with its private RNG stream (what keeps
// the concurrent measurement fan-out deterministic), decode log, and
// run statistics. Everything here is touched only by the goroutine
// currently executing this reader's epoch — per-epoch spawns in
// lockstep mode, one long-lived pipeline goroutine otherwise.
type post struct {
	rd           *reader.Reader
	rng          *rand.Rand
	intersection int
	decoded      map[uint64]float64 // transponder id → CFO when decoded

	// clk, when drift is configured, is this reader's free-running
	// local clock: reports carry clk.Now(stamp) instead of the true
	// epoch stamp. syncRNG feeds its NTP exchanges — a stream separate
	// from the measurement RNG, so drift never perturbs results.
	clk     *clock.Clock
	syncRNG *rand.Rand

	// Run statistics, accumulated as reports are produced so they
	// cover the whole run even when the collector's retention window
	// (Config.Keep) is shorter than the run.
	reports    int
	carSeconds int
	peak       int
}

// Sim is a constructed city ready to run.
type Sim struct {
	cfg      Config
	streets  []street
	vehicles []*vehicle
	parked   []*transponder.Device
	posts    []*post
	poles    map[uint32]geom.Vec2
	gw, gh   int // street-grid columns and rows
	k        int // intersections with readers
}

// NewSim lays out the city: ceil(Readers/2) intersections on a near-
// square grid of streets, readers on poles beside their streets,
// vehicles scattered over the grid, and parked cars curbside at
// intersection 0.
func NewSim(cfg Config) (*Sim, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	k := (cfg.Readers + 1) / 2
	gw := int(math.Ceil(math.Sqrt(float64(k))))
	gh := (k + gw - 1) / gw
	s := &Sim{cfg: cfg, gw: gw, gh: gh, k: k, poles: make(map[uint32]geom.Vec2)}

	hLen := float64(gw-1)*cfg.Block + 2*margin
	vLen := float64(gh-1)*cfg.Block + 2*margin
	for row := 0; row < gh; row++ {
		s.streets = append(s.streets, street{horizontal: true, fixed: float64(row) * cfg.Block, length: hLen})
	}
	for col := 0; col < gw; col++ {
		s.streets = append(s.streets, street{horizontal: false, fixed: float64(col) * cfg.Block, length: vLen})
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	pop := transponder.DefaultPopulationParams()
	serial := uint64(1)
	nextSerial := func() uint64 {
		// Dense upper bits, sequential low 16 — the same shape as the
		// deployed-tag serials internal/transponder documents.
		sn := rng.Uint64()&^uint64(0xFFFF) | serial&0xFFFF
		serial++
		return sn
	}
	for v := 0; v < cfg.Vehicles; v++ {
		veh := &vehicle{
			street: rng.Intn(len(s.streets)),
			speed:  8 + 6*rng.Float64(), // 8–14 m/s urban free flow
		}
		veh.s = rng.Float64() * s.streets[veh.street].length
		if rng.Float64() >= cfg.UnequippedFrac {
			veh.dev = transponder.NewRandomDevice(pop, nextSerial(), geom.Vec3{}, rng)
		}
		s.vehicles = append(s.vehicles, veh)
	}
	for i := 0; i < cfg.Parked; i++ {
		// Curbside rows of five, 6 m pitch, just inside reader 1's zone.
		pos := geom.V(-22+6*float64(i%5), 8+3.5*float64(i/5), 0)
		s.parked = append(s.parked, transponder.NewRandomDevice(pop, nextSerial(), pos, rng))
	}

	for j := 0; j < cfg.Readers; j++ {
		ix := j / 2
		col, row := ix%gw, ix/gw
		cx, cy := float64(col)*cfg.Block, float64(row)*cfg.Block
		rc := reader.Config{
			ID:         uint32(j + 1),
			PoleHeight: 3.8,
			TiltDeg:    60,
			NoiseSigma: cfg.NoiseSigma,
			Workers:    cfg.Workers,
		}
		if j%2 == 0 { // watches the horizontal street through (cx, cy)
			rc.PoleBase = geom.V(cx-5, cy+2, 0)
			rc.RoadDir = geom.V(1, 0, 0)
		} else { // watches the vertical street
			rc.PoleBase = geom.V(cx+2, cy-5, 0)
			rc.RoadDir = geom.V(0, 1, 0)
		}
		rd, err := reader.New(rc)
		if err != nil {
			return nil, fmt.Errorf("city: reader %d: %w", j+1, err)
		}
		s.posts = append(s.posts, &post{
			rd:           rd,
			rng:          rand.New(rand.NewSource(cfg.Seed ^ int64(j+1)*0x9E3779B9)),
			intersection: ix,
			decoded:      make(map[uint64]float64),
		})
		c := rd.Center()
		s.poles[rc.ID] = geom.P(c.X, c.Y)
	}
	initClocks(cfg, s.posts)
	return s, nil
}

// step advances vehicle kinematics by dt.
func (s *Sim) step(dt time.Duration) {
	sec := dt.Seconds()
	for _, v := range s.vehicles {
		v.s += v.speed * sec
		if l := s.streets[v.street].length; v.s >= l {
			// A single subtraction only unwinds one lap; a large step
			// (or a short street) can overrun by several, leaving s out
			// of range and vehiclePos off the map. Mod is exact for the
			// common one-lap case (bit-identical to the subtraction)
			// and correct for any step size.
			v.s = math.Mod(v.s, l)
		}
	}
}

// vehiclePos maps a vehicle's 1-D street position to the road plane
// (right-hand lane, 2 m from the centerline).
func (s *Sim) vehiclePos(v *vehicle) geom.Vec3 {
	st := s.streets[v.street]
	w := v.s - margin
	if st.horizontal {
		return geom.V(w, st.fixed-2, 0)
	}
	return geom.V(st.fixed+2, w, 0)
}

// claim refreshes transponder positions and assigns each equipped
// device to at most one reader for the coming epoch — the §9 reader
// CSMA guarantee that overlapping readers never query the same scene
// simultaneously. Claiming in reader-id order keeps the partition
// deterministic; disjoint claims are also what make the concurrent
// measurement goroutines race-free (a device's position, envelope
// cache, and battery budget are only touched by its claiming reader).
//
// The candidate set per reader comes from a uniform-grid spatial index
// (cell size = interrogation range) rebuilt each epoch, so the claim
// step costs O(vehicles + readers × in-range density) instead of
// O(readers × vehicles). Candidates are visited in fleet order —
// vehicles first, then parked cars — which is exactly the linear
// scan's order, so the partition is identical (grid_test.go keeps the
// linear scan as the equality oracle).
func (s *Sim) claim() [][]*transponder.Device {
	return s.claimMask(nil)
}

// claimMask is claim with a churn mask: a reader marked inactive this
// epoch claims nothing, so its in-range devices fall to a later
// (overlapping) reader in id order or go unread — exactly what a
// departed parked-car RSU's zone looks like. A nil mask means every
// reader is on, and the partition is identical to the pre-churn claim.
func (s *Sim) claimMask(active []bool) [][]*transponder.Device {
	idx := newClaimIndex(s.cfg.Range, s.activeDevices())
	claims := make([][]*transponder.Device, len(s.posts))
	taken := make(map[*transponder.Device]bool)
	for i, p := range s.posts {
		if active != nil && !active[i] {
			continue
		}
		for _, d := range idx.within(p.rd.Center(), s.cfg.Range) {
			if !taken[d] {
				claims[i] = append(claims[i], d)
				taken[d] = true
			}
		}
	}
	return claims
}

// activeDevices refreshes vehicle transponder positions and returns
// every claimable device in claim-priority order: equipped vehicles in
// fleet order, then parked cars in spot order.
func (s *Sim) activeDevices() []*transponder.Device {
	devs := make([]*transponder.Device, 0, len(s.vehicles)+len(s.parked))
	for _, v := range s.vehicles {
		if v.dev != nil {
			v.dev.Pos = s.vehiclePos(v)
			devs = append(devs, v.dev)
		}
	}
	devs = append(devs, s.parked...)
	return devs
}

// IntersectionStats summarizes one intersection's traffic over a run.
// The statistics are accumulated as its readers produce reports, so
// they cover every epoch of the run even when the collector's
// retention window (Config.Keep) is shorter than the run — Reports
// summed over all intersections always equals Result.TotalReports,
// while the store itself may retain fewer.
type IntersectionStats struct {
	Index      int
	X, Y       float64  // intersection center on the road plane
	Readers    []uint32 // reader ids deployed there
	Reports    int      // telemetry reports its readers delivered
	CarSeconds int      // per-epoch §5 counts summed over the run
	Peak       int      // largest single-epoch count
}

// DecodedCar is one transponder whose id some reader recovered via §8.
type DecodedCar struct {
	ID     uint64
	FreqHz float64 // CFO the decode was run at
}

// Result is a finished run: per-intersection traffic, the decoded-car
// set, and the collector tier's state for service queries (find-my-car,
// speed pairs, parking) on top.
type Result struct {
	Epochs          int
	TotalReports    int
	PerIntersection []IntersectionStats
	Decoded         []DecodedCar // sorted by id, deduplicated
	// ParkedSpots maps parking-spot index → occupant id, for spots
	// whose occupant the readers managed to decode.
	ParkedSpots map[int]uint64
	// Poles maps reader ids to road-plane positions (what a
	// SpeedService needs).
	Poles      map[uint32]geom.Vec2
	Start, End time.Time
	// Cluster is the run's collector tier — servers stopped,
	// per-partition stores still queryable. A run with Partitions 0 or
	// 1 has one partition.
	Cluster *cluster.Cluster
	// Uplinks is the per-reader delivery accounting of a chaos run —
	// client, wire, store, and churn vantage points reconciled. Nil for
	// a clean run.
	Uplinks []UplinkStats
	// Failover summarizes the partition kill of a run that armed one
	// (Chaos.KillAtSeq > 0). Nil otherwise.
	Failover *FailoverStats
}

// Directory returns the run's sighting query surface: the cluster's
// merged query plane. Services (SpeedService, the HTTP API) built on
// this work unchanged over one partition or many.
func (r *Result) Directory() collector.Directory {
	return r.Cluster
}

// FailoverStats summarizes a run's armed partition kill: whether any
// reader crossed the cut, who was rehomed where, and the recovery
// counters. Everything here is a pure function of the seed — the cut
// is keyed to report sequence numbers, so two runs with the same
// configuration kill, reroute, and recover identically.
type FailoverStats struct {
	// Partition is the partition the plan targeted.
	Partition int
	// Happened reports whether some reader actually crossed the cut
	// (a short run can end before any uplink passes KillAtSeq).
	Happened bool
	// Rehomed lists the readers moved to their ring successor, by id.
	Rehomed []uint32
	// DeadSeqs maps each rehomed reader to the last sequence number the
	// dead partition owns — the recovery split per-partition drain
	// barriers composed over.
	DeadSeqs map[uint32]uint32
	// Reconnects and Redelivered sum the rehomed readers' client-side
	// recovery work: redials performed and reports rewritten after the
	// cut. In a failover-only run (no injected faults) these count
	// exactly the failover's cost; with faults injected they include
	// injector-caused retries too.
	Reconnects  int
	Redelivered int
}

// epochJob is one epoch of work handed to a reader pipeline: the
// simulated timestamp, whether this is a §8 decode epoch, and the
// claimed devices snapshotted at claim time — frozen positions and
// battery, shared immutable envelopes — so the reader can measure
// epoch N while the coordinator's kinematics are already at N+k.
type epochJob struct {
	epoch  int
	stamp  time.Time
	decode bool
	devs   []*transponder.Device
}

// Run executes the simulation: an in-process collector tier, one TCP
// uplink per reader, and every reader running its capture → decode →
// uplink loop as an independent pipeline (epoch N+1 capture overlaps
// epoch N decode and uplink; sends ride an async per-reader queue).
// Config.Lockstep instead reproduces the legacy global per-epoch
// barrier — the determinism oracle: both modes produce identical
// Results for the same seed. Run blocks until every reader's final
// report has landed in the store (a per-reader sequence check, not a
// global count).
func (s *Sim) Run() (*Result, error) {
	epochs := int(s.cfg.Duration / s.cfg.Epoch)
	ids := make([]uint32, len(s.posts))
	for i, p := range s.posts {
		ids[i] = p.rd.ID
	}
	cr := newChaosRun(s.cfg, epochs, ids) // nil on the clean path

	cl, err := cluster.New(cluster.Config{
		Partitions: max(1, s.cfg.Partitions),
		Keep:       s.cfg.Keep,
		Shards:     s.cfg.Shards,
		Logf:       func(string, ...any) {}, // keep harness output clean
	})
	if err != nil {
		return nil, fmt.Errorf("city: %w", err)
	}
	defer cl.Stop()
	for _, p := range s.posts {
		cl.Register(p.rd.ID, s.cellOf(p))
	}
	if s.cfg.Chaos.KillAtSeq > 0 {
		plan := cluster.FailoverPlan{Partition: s.cfg.Chaos.KillPartition, AtSeq: uint32(s.cfg.Chaos.KillAtSeq)}
		if err := cl.SetFailover(plan); err != nil {
			return nil, fmt.Errorf("city: %w", err)
		}
	}

	clients := make([]*collector.Client, len(s.posts))
	for i, p := range s.posts {
		c, err := s.dialUplink(cr, cl, p)
		if err != nil {
			return nil, fmt.Errorf("city: uplink %d: %w", i, err)
		}
		defer c.Close()
		clients[i] = c
	}

	if s.cfg.Lockstep {
		err = s.runLockstep(cr, clients, epochs)
	} else {
		err = s.runPipelined(cr, clients, epochs)
	}
	if err != nil {
		return nil, err
	}
	// The uplinks are real TCP, so sends complete before the server has
	// necessarily read them; block until every reader's reports have
	// landed. The barriers track per-reader marks, not retained
	// history: a run longer than the store's keep window trims old
	// reports, but every report still has to land — and no reader's
	// surplus can mask another reader's missing uplink.
	timeout := s.cfg.DrainTimeout
	if timeout == 0 {
		timeout = drainTimeout(epochs, len(s.posts))
	}
	if err := s.drain(cr, cl, clients, epochs, timeout); err != nil {
		return nil, err
	}
	produced := 0
	for _, p := range s.posts {
		produced += p.reports
	}
	res := s.summarize(produced, epochs)
	res.Cluster = cl
	if s.cfg.Chaos.KillAtSeq > 0 {
		res.Failover = s.failoverStats(cl, cr, clients, epochs)
	}
	if cr != nil {
		res.Uplinks = cr.uplinkStats(s.posts, clients, cl, epochs)
	}
	return res, nil
}

// drain blocks until every uplinked report has landed in the cluster.
// Each reader's expected seq set splits by partition ownership (a
// rehomed reader's pre-cut prefix barriers on the dead partition's
// store, its suffix on the successor) and the per-partition barriers
// run concurrently.
func (s *Sim) drain(cr *chaosRun, cl *cluster.Cluster, clients []*collector.Client, epochs int, timeout time.Duration) error {
	if cr != nil {
		// Chaos: injected loss makes an exact barrier a guaranteed hang,
		// so drain gap-tolerantly with seq-localized loss and duplicate
		// budgets.
		return cr.clusterDrain(cl, s.posts, clients, epochs, timeout)
	}
	// Clean: lossless (a failover cut loses nothing either: pre-cut
	// frames land on the dead partition, post-cut frames are redelivered
	// to the successor), so the exact high-water barrier holds.
	want := make(map[uint32]uint32, len(s.posts))
	for _, p := range s.posts {
		want[p.rd.ID] = uint32(epochs)
	}
	if err := cl.WaitHighWater(want, timeout); err != nil {
		return fmt.Errorf("city: %w", err)
	}
	return nil
}

// cellOf returns the grid-cell key a reader homes by: its
// intersection's column/row on the street grid. Both readers of an
// intersection share the key, so co-located readers share a home
// collector by construction.
func (s *Sim) cellOf(p *post) string {
	return fmt.Sprintf("cell-%d-%d", p.intersection%s.gw, p.intersection/s.gw)
}

// dialUplink opens one reader's uplink against the cluster. The dial
// resolves the reader's current home on every (re)connect — that
// re-resolution is the failover mechanism: a rehomed reader's redial
// lands on the ring successor. Layering is client →
// failover guard → fault injector → TCP, so a cut frame is never
// charged to the injector's loss accounting and an injector-killed
// frame retries against the same home until the cut is actually
// crossed.
func (s *Sim) dialUplink(cr *chaosRun, cl *cluster.Cluster, p *post) (*collector.Client, error) {
	id := p.rd.ID
	dial := func() (net.Conn, error) {
		return net.DialTimeout("tcp", cl.AddrFor(id), 5*time.Second)
	}
	if cr != nil {
		dial = cr.inj.WrapDial(fmt.Sprintf("reader-%d", id), dial)
	}
	return collector.DialFunc(func() (net.Conn, error) {
		conn, err := dial()
		if err != nil {
			return nil, err
		}
		return cl.GuardConn(id, conn), nil
	})
}

// failoverStats reconciles the partition-kill summary after the drain.
func (s *Sim) failoverStats(cl *cluster.Cluster, cr *chaosRun, clients []*collector.Client, epochs int) *FailoverStats {
	plan, ok := cl.Plan()
	if !ok {
		return nil
	}
	fs := &FailoverStats{Partition: plan.Partition, DeadSeqs: make(map[uint32]uint32)}
	_, fs.Happened = cl.KilledPartition()
	fs.Rehomed = cl.Rehomed()
	rehomed := make(map[uint32]bool, len(fs.Rehomed))
	for _, id := range fs.Rehomed {
		rehomed[id] = true
	}
	for i, p := range s.posts {
		id := p.rd.ID
		if !rehomed[id] {
			continue
		}
		total := uint32(epochs)
		if cr != nil && cr.sched != nil {
			total = uint32(cr.sched.ActiveEpochs(id, epochs))
		}
		if split := cl.OwnershipSplit(id, total); len(split) == 2 {
			fs.DeadSeqs[id] = split[0].Hi
		}
		st := clients[i].Stats()
		fs.Reconnects += st.Reconnects
		fs.Redelivered += st.Redelivered
	}
	return fs
}

// drainTimeout is the default end-of-run ingest deadline: a floor for
// tiny runs plus headroom that grows with the number of reports in
// flight, so a city-day at 64 readers is not failed by a constant
// sized for a smoke test.
func drainTimeout(epochs, readers int) time.Duration {
	return 10*time.Second + time.Duration(epochs)*time.Duration(readers)*200*time.Microsecond
}

// runLockstep is the legacy epoch loop: advance kinematics, claim,
// fan out one measurement goroutine per reader, barrier, repeat. Kept
// as the oracle the pipelined mode is tested against — including under
// chaos, where both modes must produce identical delivery counters.
func (s *Sim) runLockstep(cr *chaosRun, clients []*collector.Client, epochs int) error {
	steps := int(s.cfg.Epoch / s.cfg.Step)
	now := time.Duration(0)
	for e := 0; e < epochs; e++ {
		for t := 0; t < steps; t++ {
			s.step(s.cfg.Step)
		}
		now += s.cfg.Epoch
		active := cr.activeMask(s.posts, e)
		claims := s.claimMask(active)
		job := epochJob{epoch: e, stamp: baseTime.Add(now), decode: s.decodeAt(e)}
		errs := make([]error, len(s.posts))
		var wg sync.WaitGroup
		for i := range s.posts {
			if active != nil && !active[i] {
				continue // churned out this epoch: no measurement, no seq
			}
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				j := job
				j.devs = claims[i]
				rep, err := s.measureEpoch(s.posts[i], j)
				if err != nil {
					errs[i] = err
					return
				}
				errs[i] = s.uplink(s.posts[i], clients[i], rep)
			}(i)
		}
		wg.Wait()
		for _, err := range errs {
			// A degraded uplink is telemetry loss, not a dead city: the
			// client already counted the drop; the run carries on.
			if err != nil && !errors.Is(err, collector.ErrUplinkDegraded) {
				return err
			}
		}
	}
	// Flush reports still coalescing in the uplink batches.
	for i, c := range clients {
		if err := c.Flush(); err != nil && !errors.Is(err, collector.ErrUplinkDegraded) {
			return fmt.Errorf("city: reader %d uplink flush: %w", s.posts[i].rd.ID, err)
		}
	}
	return nil
}

// runPipelined is the default run loop. The coordinator goroutine owns
// all global state — vehicle kinematics and the claim partition — and
// walks it epoch by epoch, handing each reader a snapshot of its
// claimed devices through a bounded work queue. Each reader owns two
// goroutines: a measurement loop (capture → analyze → decode) and an
// uplink sender, connected by a buffered report queue, so a reader's
// epoch N+1 capture overlaps its own epoch N uplink and nothing ever
// waits for another reader. Determinism holds because every mutable
// thing is owned by exactly one loop: the coordinator mutates vehicles
// and real devices, each reader consumes its private RNG stream in
// epoch order against frozen snapshots, and the store keys ingest by
// (ReaderID, Seq).
func (s *Sim) runPipelined(cr *chaosRun, clients []*collector.Client, epochs int) error {
	steps := int(s.cfg.Epoch / s.cfg.Step)
	depth := s.cfg.Pipeline
	n := len(s.posts)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	work := make([]chan epochJob, n)
	sendq := make([]chan *telemetry.Report, n)
	measureErrs := make([]error, n)
	sendErrs := make([]error, n)
	var measureWG, sendWG sync.WaitGroup
	for i := range s.posts {
		work[i] = make(chan epochJob, depth)
		sendq[i] = make(chan *telemetry.Report, depth)
		measureWG.Add(1)
		go func(i int) {
			defer measureWG.Done()
			defer close(sendq[i])
			for job := range work[i] {
				rep, err := s.measureEpoch(s.posts[i], job)
				if err != nil {
					measureErrs[i] = err
					cancel()
					return
				}
				select {
				case sendq[i] <- rep:
				case <-ctx.Done():
					return
				}
			}
		}(i)
		sendWG.Add(1)
		go func(i int) {
			defer sendWG.Done()
			p, up := s.posts[i], clients[i]
			for rep := range sendq[i] {
				if err := s.uplink(p, up, rep); err != nil {
					// Degraded ≠ dead: the client counted the loss and
					// keeps accepting (and dropping) sends; the reader
					// keeps measuring. Any other error aborts the run.
					if errors.Is(err, collector.ErrUplinkDegraded) {
						continue
					}
					sendErrs[i] = err
					cancel()
					return
				}
			}
			if err := up.Flush(); err != nil && !errors.Is(err, collector.ErrUplinkDegraded) {
				sendErrs[i] = fmt.Errorf("city: reader %d uplink flush: %w", p.rd.ID, err)
				cancel()
			}
		}(i)
	}

	var coordErr error
	now := time.Duration(0)
coordinate:
	for e := 0; e < epochs; e++ {
		for t := 0; t < steps; t++ {
			s.step(s.cfg.Step)
		}
		now += s.cfg.Epoch
		active := cr.activeMask(s.posts, e)
		claims := s.claimMask(active)
		job := epochJob{epoch: e, stamp: baseTime.Add(now), decode: s.decodeAt(e)}
		for i := range s.posts {
			if active != nil && !active[i] {
				continue // churned out: the reader simply gets no job
			}
			j := job
			j.devs, coordErr = s.snapshot(s.posts[i], claims[i])
			if coordErr != nil {
				break coordinate
			}
			select {
			case work[i] <- j:
			case <-ctx.Done():
				break coordinate
			}
		}
	}
	for i := range work {
		close(work[i])
	}
	measureWG.Wait()
	sendWG.Wait()
	for i := range s.posts {
		if measureErrs[i] != nil {
			return measureErrs[i]
		}
		if sendErrs[i] != nil {
			return sendErrs[i]
		}
	}
	return coordErr
}

// decodeAt reports whether epoch e runs the §8 collision decoder.
func (s *Sim) decodeAt(e int) bool {
	return s.cfg.DecodeEvery > 0 && e%s.cfg.DecodeEvery == 0
}

// snapshot freezes one reader's claimed devices for a pipelined epoch:
// position and battery copied, modulated envelope shared (immutable
// once built — building it here, on the coordinator goroutine, keeps
// the lazy modulation write off the concurrent readers).
func (s *Sim) snapshot(p *post, devs []*transponder.Device) ([]*transponder.Device, error) {
	if len(devs) == 0 {
		return nil, nil
	}
	fs := p.rd.Capture.SampleRate
	out := make([]*transponder.Device, len(devs))
	for i, d := range devs {
		cp, err := d.Snapshot(fs)
		if err != nil {
			return nil, fmt.Errorf("city: reader %d: %w", p.rd.ID, err)
		}
		out[i] = cp
	}
	return out, nil
}

// measureEpoch runs one reader's epoch: a §10 active window (Queries
// back-to-back queries, multi-query analysis, §5 count) and optionally
// a §8 decode pass over the single-occupancy spikes. Everything it
// touches — the post's reader, RNG, statistics, and the epoch's device
// set — is private to the calling goroutine.
func (s *Sim) measureEpoch(p *post, job epochJob) (*telemetry.Report, error) {
	if s.cfg.measureDelay != nil {
		if d := s.cfg.measureDelay(p.rd.ID, job.epoch); d > 0 {
			time.Sleep(d)
		}
	}
	res, err := p.rd.Measure(job.devs, s.cfg.Queries, p.rng)
	if err != nil {
		return nil, fmt.Errorf("city: reader %d: %w", p.rd.ID, err)
	}
	stamp := job.stamp
	if p.clk != nil {
		// A drifting reader stamps reports with its local clock — the
		// error the cross-reader speed service actually inherits (§7).
		// Periodic NTP resyncs slew it back to tens-of-ms accuracy;
		// both consume only this reader's private streams in its own
		// epoch order, so lockstep and pipelined runs drift identically.
		if k := s.cfg.Chaos.ResyncEvery; k > 0 && job.epoch > 0 && job.epoch%k == 0 {
			if _, err := clock.Sync(p.clk, job.stamp, clock.DefaultSyncParams(), p.syncRNG); err != nil {
				return nil, fmt.Errorf("city: reader %d clock sync: %w", p.rd.ID, err)
			}
		}
		stamp = p.clk.Now(job.stamp)
	}
	rep := p.rd.Report(res, stamp)
	if job.decode && len(job.devs) > 0 {
		var freqs []float64
		for _, sp := range res.Spikes {
			if !sp.Multiple { // same-bin pairs don't combine coherently
				freqs = append(freqs, sp.Freq)
			}
		}
		out, err := p.rd.DecodeIDs(job.devs, freqs, s.cfg.DecodeBudget, p.rng)
		if err != nil {
			return nil, fmt.Errorf("city: reader %d decode: %w", p.rd.ID, err)
		}
		for i := range rep.Spikes {
			if dr, ok := out[rep.Spikes[i].FreqHz]; ok {
				rep.Spikes[i].DecodedID = dr.Frame.ID()
				p.decoded[dr.Frame.ID()] = rep.Spikes[i].FreqHz
			}
		}
	}
	p.reports++
	p.carSeconds += rep.Count
	if rep.Count > p.peak {
		p.peak = rep.Count
	}
	return rep, nil
}

// uplink queues one report on a reader's client, flushing per the
// batch policy. Batch = 1 sends the legacy single-report frame; larger
// batches coalesce, paying one frame per Batch epochs. Both land the
// same reports, so results are identical either way.
func (s *Sim) uplink(p *post, up *collector.Client, rep *telemetry.Report) error {
	if s.cfg.Batch <= 1 {
		if err := up.Send(rep); err != nil {
			return fmt.Errorf("city: reader %d uplink: %w", p.rd.ID, err)
		}
		return nil
	}
	up.Queue(rep)
	if up.Pending() >= s.cfg.Batch {
		if err := up.Flush(); err != nil {
			return fmt.Errorf("city: reader %d uplink: %w", p.rd.ID, err)
		}
	}
	return nil
}

// summarize folds the per-reader run statistics into per-intersection
// statistics and merges the per-reader decode logs in a fixed order.
func (s *Sim) summarize(total, epochs int) *Result {
	res := &Result{
		Epochs:       epochs,
		TotalReports: total,
		ParkedSpots:  make(map[int]uint64),
		Poles:        s.poles,
		Start:        baseTime,
		End:          baseTime.Add(time.Duration(epochs) * s.cfg.Epoch),
	}
	stats := make([]IntersectionStats, s.k)
	for ix := range stats {
		col, row := ix%s.gw, ix/s.gw
		stats[ix] = IntersectionStats{Index: ix, X: float64(col) * s.cfg.Block, Y: float64(row) * s.cfg.Block}
	}
	for _, p := range s.posts {
		st := &stats[p.intersection]
		st.Readers = append(st.Readers, p.rd.ID)
		// Producer-side accumulation, not a store scan: history trimmed
		// by the keep window must not silently shrink the run summary
		// (the store still backs the service queries below).
		st.Reports += p.reports
		st.CarSeconds += p.carSeconds
		if p.peak > st.Peak {
			st.Peak = p.peak
		}
	}
	res.PerIntersection = stats

	seen := make(map[uint64]bool)
	for _, p := range s.posts { // posts are in reader-id order
		ids := make([]uint64, 0, len(p.decoded))
		for id := range p.decoded {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
		for _, id := range ids {
			if !seen[id] {
				seen[id] = true
				res.Decoded = append(res.Decoded, DecodedCar{ID: id, FreqHz: p.decoded[id]})
			}
		}
	}
	sort.Slice(res.Decoded, func(a, b int) bool { return res.Decoded[a].ID < res.Decoded[b].ID })
	for spot, d := range s.parked {
		if seen[d.ID()] {
			res.ParkedSpots[spot] = d.ID()
		}
	}
	return res
}

// Run builds and executes a city in one call.
func Run(cfg Config) (*Result, error) {
	s, err := NewSim(cfg)
	if err != nil {
		return nil, err
	}
	return s.Run()
}
