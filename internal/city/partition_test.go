package city

// Partitioned-collector harness tests: the partition-count invariance
// contract (same seeded city, any partition count, identical merged
// query answers) and the deterministic partition-kill failover.

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"caraoke/internal/cluster"
	"caraoke/internal/collector"
)

// invarianceConfig is a city big enough to spread readers over several
// partitions and decode enough cars to make the query plane non-trivial.
func invarianceConfig() Config {
	return Config{
		Readers:     8,
		Vehicles:    30,
		Parked:      6,
		Duration:    6 * time.Second,
		Seed:        7,
		DecodeEvery: 2,
	}
}

// queryFingerprint canonicalizes every service answer the run's
// directory gives: find-my-car per decoded id, decoded-id and
// per-reader sighting lookups per decoded CFO, a speed check per
// decoded CFO, and the parking map. Two runs answer identically iff
// their fingerprints are byte-equal; times print as UnixNano so wire
// round-trips (which drop the zone) cannot alias a real difference.
func queryFingerprint(t *testing.T, res *Result) string {
	t.Helper()
	dir := res.Directory()
	var b strings.Builder
	for _, d := range res.Decoded {
		if sgt, ok := dir.FindCar(d.ID); ok {
			fmt.Fprintf(&b, "car %#x: reader %d at %d freq %.6f\n", d.ID, sgt.ReaderID, sgt.Seen.UnixNano(), sgt.FreqHz)
		} else {
			fmt.Fprintf(&b, "car %#x: not found\n", d.ID)
		}
	}
	const tol = 500.0
	svc := collector.NewSpeedService(dir, 15)
	for id, pos := range res.Poles {
		svc.RegisterReader(id, pos)
	}
	for _, d := range res.Decoded {
		fmt.Fprintf(&b, "cfo %.6f: id %#x\n", d.FreqHz, dir.DecodedIDAt(d.FreqHz, tol))
		sightings := dir.SightingsByCFO(d.FreqHz, tol)
		ids := make([]uint32, 0, len(sightings))
		for id := range sightings {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			s := sightings[id]
			fmt.Fprintf(&b, "  reader %d at %d freq %.6f\n", id, s.Seen.UnixNano(), s.FreqHz)
		}
		v, over, err := svc.Check(d.FreqHz, tol, time.Hour, res.End)
		if err != nil {
			fmt.Fprintf(&b, "  speed: err %v\n", err)
		} else {
			fmt.Fprintf(&b, "  speed: %.6f m/s over=%v from=%d to=%d at=%d id=%#x\n",
				v.SpeedMPS, over, v.From, v.To, v.At.UnixNano(), v.DecodedID)
		}
	}
	spots := make([]int, 0, len(res.ParkedSpots))
	for spot := range res.ParkedSpots {
		spots = append(spots, spot)
	}
	sort.Ints(spots)
	for _, spot := range spots {
		fmt.Fprintf(&b, "spot %d: %#x\n", spot, res.ParkedSpots[spot])
	}
	return b.String()
}

// TestPartitionCountInvariance is the tentpole's correctness contract:
// the same seeded city run against one collector, two partitions, and
// four partitions must produce identical run statistics and answer
// every directory query identically — including speed checks, whose
// sighting pairs may straddle partitions.
func TestPartitionCountInvariance(t *testing.T) {
	base, err := Run(invarianceConfig())
	if err != nil {
		t.Fatal(err)
	}
	if n := base.Cluster.NumPartitions(); n != 1 {
		t.Fatalf("Partitions 0 should run a one-partition cluster, got %d partitions", n)
	}
	want := queryFingerprint(t, base)
	if len(base.Decoded) == 0 {
		t.Fatal("no cars decoded — the invariance check is vacuous")
	}
	for _, parts := range []int{2, 4} {
		cfg := invarianceConfig()
		cfg.Partitions = parts
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("partitions=%d: %v", parts, err)
		}
		if n := res.Cluster.NumPartitions(); n != parts {
			t.Fatalf("partitions=%d: cluster has %d partitions", parts, n)
		}
		if !reflect.DeepEqual(res.PerIntersection, base.PerIntersection) {
			t.Errorf("partitions=%d: per-intersection stats diverge", parts)
		}
		if !reflect.DeepEqual(res.Decoded, base.Decoded) {
			t.Errorf("partitions=%d: decoded sets diverge: %v vs %v", parts, res.Decoded, base.Decoded)
		}
		if !reflect.DeepEqual(res.ParkedSpots, base.ParkedSpots) {
			t.Errorf("partitions=%d: parked spots diverge", parts)
		}
		if got := queryFingerprint(t, res); got != want {
			t.Errorf("partitions=%d: merged query answers diverge from one partition:\n--- one partition\n%s--- partitioned\n%s", parts, want, got)
		}
		if parts == 4 {
			spread := 0
			for i := 0; i < parts; i++ {
				if res.Cluster.ReadersOn(i) > 0 {
					spread++
				}
			}
			if spread < 2 {
				t.Errorf("all readers homed on one of %d partitions — the merge path went unexercised", parts)
			}
		}
	}
}

// failoverConfig arms a partition kill on the partition owning the
// first intersection's cell, so readers 1 and 2 are guaranteed to be
// homed on the doomed partition.
func failoverConfig(t *testing.T) (Config, int) {
	t.Helper()
	ring, err := cluster.NewRing(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	doomed := ring.Owner("cell-0-0")
	cfg := testConfig() // 3 readers: 1,2 on cell-0-0; 3 on cell-1-0
	cfg.Partitions = 2
	cfg.Chaos.KillPartition = doomed
	cfg.Chaos.KillAtSeq = 3
	return cfg, doomed
}

// TestPartitionFailoverDeterministic kills a partition at seq 3 of 6
// and asserts the deterministic recovery: the dead partition ends the
// run owning exactly seqs 1..3 from each of its readers, the readers
// rehome to the ring successor carrying 4..6, each rehomed client paid
// exactly one reconnect and one redelivery, and a second run reproduces
// every counter bit-for-bit.
func TestPartitionFailoverDeterministic(t *testing.T) {
	cfg, doomed := failoverConfig(t)
	run := func(cfg Config) *Result {
		t.Helper()
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := run(cfg)
	epochs := res.Epochs
	fo := res.Failover
	if fo == nil || !fo.Happened || fo.Partition != doomed {
		t.Fatalf("failover summary = %+v, want a realized kill of partition %d", fo, doomed)
	}
	// Every reader homed on the doomed partition outlives the cut (all
	// produce 6 > 3 seqs), so the rehomed set is exactly the doomed
	// partition's original population.
	var wantRehomed []uint32
	for id := uint32(1); id <= uint32(cfg.Readers); id++ {
		if res.Cluster.OriginOf(id) == doomed {
			wantRehomed = append(wantRehomed, id)
		}
	}
	if !reflect.DeepEqual(fo.Rehomed, wantRehomed) {
		t.Fatalf("rehomed = %v, want %v", fo.Rehomed, wantRehomed)
	}
	if len(wantRehomed) == 0 {
		t.Fatal("no reader was homed on the doomed partition; test proves nothing")
	}
	dead := res.Cluster.Partition(doomed).Store
	for _, id := range fo.Rehomed {
		if got := fo.DeadSeqs[id]; got != uint32(cfg.Chaos.KillAtSeq) {
			t.Errorf("reader %d: dead partition owns seqs 1..%d, want 1..%d", id, got, cfg.Chaos.KillAtSeq)
		}
		if got := dead.SeqsReceived(id); got != cfg.Chaos.KillAtSeq {
			t.Errorf("reader %d: dead store landed %d seqs, want %d", id, got, cfg.Chaos.KillAtSeq)
		}
		succ := res.Cluster.HomeOf(id)
		if succ == doomed {
			t.Fatalf("reader %d still homed on the dead partition", id)
		}
		if got := res.Cluster.Partition(succ).Store.SeqsReceived(id); got != epochs-cfg.Chaos.KillAtSeq {
			t.Errorf("reader %d: successor landed %d seqs, want %d", id, got, epochs-cfg.Chaos.KillAtSeq)
		}
	}
	if fo.Reconnects != len(fo.Rehomed) || fo.Redelivered != len(fo.Rehomed) {
		t.Errorf("recovery cost = %d reconnects / %d redeliveries, want %d each (one per rehomed reader)",
			fo.Reconnects, fo.Redelivered, len(fo.Rehomed))
	}

	again := run(cfg)
	if !reflect.DeepEqual(again.Failover, fo) {
		t.Errorf("failover counters diverge across identical seeds:\n%+v\n%+v", fo, again.Failover)
	}
	if !reflect.DeepEqual(again.PerIntersection, res.PerIntersection) {
		t.Errorf("per-intersection stats diverge across identical seeds")
	}

	lockCfg := cfg
	lockCfg.Lockstep = true
	lock := run(lockCfg)
	if !reflect.DeepEqual(lock.Failover, fo) {
		t.Errorf("failover counters differ across run modes:\npipelined: %+v\nlockstep:  %+v", fo, lock.Failover)
	}
}

// TestPartitionFailoverUnderChaos combines the partition kill with the
// full failure model — frame drops, connection kills, churn, drift —
// and asserts the whole delivery and recovery accounting is still a
// pure function of the seed, in both run modes. This is the test that
// exercises the per-partition gap-tolerant drain with seq-localized
// loss budgets.
func TestPartitionFailoverUnderChaos(t *testing.T) {
	ring, err := cluster.NewRing(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := chaosConfig()
	cfg.Partitions = 2
	cfg.Chaos.KillPartition = ring.Owner("cell-0-0")
	cfg.Chaos.KillAtSeq = 2
	run := func(cfg Config) *Result {
		t.Helper()
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(cfg), run(cfg)
	if !reflect.DeepEqual(a.Uplinks, b.Uplinks) {
		t.Errorf("uplink accounting diverges across identical seeds:\n%+v\n%+v", a.Uplinks, b.Uplinks)
	}
	if !reflect.DeepEqual(a.Failover, b.Failover) {
		t.Errorf("failover counters diverge across identical seeds:\n%+v\n%+v", a.Failover, b.Failover)
	}
	if !reflect.DeepEqual(a.PerIntersection, b.PerIntersection) {
		t.Errorf("per-intersection stats diverge across identical seeds")
	}
	faultsSeen := 0
	for _, u := range a.Uplinks {
		faultsSeen += u.FramesLost + u.Kills + u.OfflineEpochs
	}
	if faultsSeen == 0 {
		t.Error("the chaos config injected nothing — the test is vacuous")
	}

	lockCfg := cfg
	lockCfg.Lockstep = true
	lock := run(lockCfg)
	if !reflect.DeepEqual(lock.Uplinks, a.Uplinks) {
		t.Errorf("chaos accounting differs across run modes:\npipelined: %+v\nlockstep:  %+v", a.Uplinks, lock.Uplinks)
	}
	if !reflect.DeepEqual(lock.Failover, a.Failover) {
		t.Errorf("failover counters differ across run modes:\npipelined: %+v\nlockstep:  %+v", a.Failover, lock.Failover)
	}
}
