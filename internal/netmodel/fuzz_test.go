package netmodel

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"femtocr/internal/video"
)

// FuzzPartition drives generated deployments through NewNetwork →
// Partition → Subnetwork: a layout kind and size, a per-FBS user count of
// 0 to 3 (a nil video group is an FBS without users; no loads at all
// selects the generated load), the Poisson area's side, the grid's FBSs
// per block, the generated per-FBS load and the layout seed. A negative,
// infinite or NaN side, or a negative block or load, must fail with
// ErrBadNetwork. Otherwise the chain must never panic, and whenever it
// returns no error the shards must partition the users exactly: every
// user in exactly one shard, ascending; each shard one whole interference
// component with at least one user; and each sub-network mapping its users
// back to the originals.
func FuzzPartition(f *testing.F) {
	// kind, size, loads (2 bits of users per FBS), side, block, users, seed.
	f.Add(uint8(KindMetroPoisson), uint8(24), uint64(0xffffffffffffffff), 0.0, int8(0), int8(0), uint64(1))
	f.Add(uint8(KindMetroPoisson), uint8(40), uint64(0x9c3a5f01e2d4b768), 60.0, int8(0), int8(0), uint64(7))
	f.Add(uint8(KindMetroGrid), uint8(17), uint64(0x3300ccff0f0f3c3c), 0.0, int8(2), int8(0), uint64(2))
	f.Add(uint8(KindMetroGrid), uint8(4), uint64(0), 0.0, int8(0), int8(2), uint64(6))
	f.Add(uint8(KindNonInterferingLine), uint8(3), uint64(0x33), 0.0, int8(0), int8(0), uint64(3))
	f.Add(uint8(KindInterferingPath), uint8(5), uint64(0x303), 0.0, int8(4), int8(1), uint64(4))
	f.Add(uint8(KindSingle), uint8(1), uint64(0), 0.0, int8(0), int8(0), uint64(5))
	// Hostile values: each must fail with ErrBadNetwork.
	f.Add(uint8(KindMetroPoisson), uint8(24), uint64(0), -5.0, int8(0), int8(0), uint64(1))
	f.Add(uint8(KindMetroPoisson), uint8(24), uint64(0), math.NaN(), int8(0), int8(0), uint64(1))
	f.Add(uint8(KindMetroPoisson), uint8(24), uint64(0), 0.0, int8(0), int8(-1), uint64(1))
	f.Add(uint8(KindMetroGrid), uint8(4), uint64(0), 0.0, int8(-2), int8(0), uint64(1))
	f.Fuzz(func(t *testing.T, kind, size uint8, loads uint64, side float64, block, users int8, seed uint64) {
		spec := TopologySpec{
			Kind:        TopologyKind(kind % 7), // 0 and 6 are invalid kinds
			FBSs:        1 + int(size)%48,
			Rows:        1 + int(size)%3,
			Cols:        1 + int(size/3)%3,
			FBSPerBlock: int(block % 5),
			UsersPerFBS: int(users % 4),
			Side:        side,
		}
		hostile := spec.FBSPerBlock < 0 || spec.UsersPerFBS < 0 || !(side >= 0 && side <= math.MaxFloat64)
		if n, err := spec.NumFBS(); err == nil && loads != 0 {
			pool := video.StandardSequences()
			spec.Videos = make([][]video.Sequence, n)
			for i := range spec.Videos {
				users := int(loads>>(2*uint(i%32))) & 3
				for u := 0; u < users; u++ {
					spec.Videos[i] = append(spec.Videos[i], pool[(i+u)%len(pool)])
				}
			}
		}
		cfg := DefaultConfig()
		cfg.Seed = seed
		net, err := NewNetwork(cfg, spec)
		if hostile {
			if !errors.Is(err, ErrBadNetwork) {
				t.Fatalf("hostile spec %+v: err = %v, want ErrBadNetwork", spec, err)
			}
			return
		}
		if err != nil {
			return
		}
		shards, err := net.Partition()
		if err != nil {
			return
		}
		comps := net.Graph.Components()
		owner := make([]int, net.K())
		for j := range owner {
			owner[j] = -1
		}
		for si := range shards {
			s := &shards[si]
			if len(s.Users) == 0 {
				t.Fatalf("shard %d (component %d) has no users", si, s.Component)
			}
			if si > 0 && s.Component <= shards[si-1].Component {
				t.Fatalf("shard %d: component %d after %d", si, s.Component, shards[si-1].Component)
			}
			if s.Component < 0 || s.Component >= len(comps) || !reflect.DeepEqual(s.FBSs, fbsIDs(comps[s.Component])) {
				t.Fatalf("shard %d: FBSs %v are not component %d of %v", si, s.FBSs, s.Component, comps)
			}
			inShard := make(map[int]bool, len(s.FBSs))
			for _, fbs := range s.FBSs {
				inShard[fbs] = true
			}
			for i, j := range s.Users {
				if i > 0 && j <= s.Users[i-1] {
					t.Fatalf("shard %d: users %v not ascending", si, s.Users)
				}
				if j < 0 || j >= net.K() || owner[j] >= 0 {
					t.Fatalf("shard %d: user %d out of range or in two shards", si, j)
				}
				owner[j] = si
				if !inShard[net.Users[j].FBS] {
					t.Fatalf("shard %d: user %d is served by FBS %d outside it", si, j, net.Users[j].FBS)
				}
			}
			sub, err := net.Subnetwork(s)
			if err != nil {
				t.Fatalf("shard %d: Subnetwork: %v", si, err)
			}
			if err := sub.Validate(); err != nil {
				t.Fatalf("shard %d: sub-network invalid: %v", si, err)
			}
			if sub.NumFBS != len(s.FBSs) || len(sub.Users) != len(s.Users) || !sub.Graph.IsConnected() {
				t.Fatalf("shard %d: sub-network has %d FBSs, %d users, connected=%v", si, sub.NumFBS, len(sub.Users), sub.Graph.IsConnected())
			}
			for local, j := range s.Users {
				got, orig := sub.Users[local], net.Users[j]
				if got.ID != local || got.FBS < 1 || got.FBS > len(s.FBSs) || s.FBSs[got.FBS-1] != orig.FBS ||
					got.Pos != orig.Pos || got.Seq.Name != orig.Seq.Name {
					t.Fatalf("shard %d: sub-network user %d does not map back to user %d", si, local, j)
				}
			}
		}
		for j, si := range owner {
			if si < 0 {
				t.Fatalf("user %d is in no shard", j)
			}
		}
	})
}
