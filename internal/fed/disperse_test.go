package fed

import (
	"reflect"
	"testing"

	"ptffedrec/internal/bitset"
	"ptffedrec/internal/comm"
	"ptffedrec/internal/models"
	"ptffedrec/internal/rng"
)

// disperseForEligible crafts a dispersal target whose exclusion set rules
// out all but wantEligible items and returns one dispersal for it. The
// generation is made unique per (wantEligible, seed) so the eligibility
// cache never serves a list built for a different exclusion set.
func disperseForEligible(t *testing.T, tr *Trainer, wantEligible int, seed uint64) ([]comm.Prediction, []int) {
	t.Helper()
	sp := tr.split
	excl := bitset.New(sp.NumItems)
	for v := 0; v < sp.NumItems-wantEligible; v++ {
		excl.Add(v)
	}
	eligible := make([]int, 0, wantEligible)
	for v := sp.NumItems - wantEligible; v < sp.NumItems; v++ {
		eligible = append(eligible, v)
	}
	tgt := disperseTarget{id: 0, excl: excl, gen: uint64(wantEligible)<<32 | seed}
	plan := tr.Server().buildDispersalPlan()
	scratch := &disperseScratch{}
	ds := rng.New(seed).Derive("disperse-test")
	return tr.Server().disperse(tgt, ds, plan, scratch), eligible
}

// TestDisperseRandomArmsFillAlpha is the regression test for the random
// ablation arms' under-fill bug: the 2×nConf / 3×nHard oversample could
// collide with already-chosen items and leave D̃ᵢ below α. With an
// adversarial Mu (0.9 → nConf=9, nHard=1, so three random hard draws face
// nine already-chosen items) and a tiny eligible set, every arm must now
// produce exactly min(α, |eligible|) distinct eligible items, for every
// stream.
func TestDisperseRandomArmsFillAlpha(t *testing.T) {
	sp := tinySplit(t)
	for _, mode := range []DisperseMode{
		DisperseConfHard, DisperseNoHard, DisperseNoConf, DisperseAllRandom,
	} {
		cfg := fastConfig(models.KindNeuMF)
		cfg.Rounds = 1
		cfg.Alpha = 10
		cfg.Mu = 0.9
		cfg.Disperse = mode
		tr, err := NewTrainer(sp, cfg)
		if err != nil {
			t.Fatal(err)
		}
		tr.RunRound(0)
		// |eligible| both above and below α, including the α boundary.
		for _, nEligible := range []int{12, 10, 7, 1} {
			want := cfg.Alpha
			if nEligible < want {
				want = nEligible
			}
			for seed := uint64(1); seed <= 50; seed++ {
				preds, eligible := disperseForEligible(t, tr, nEligible, seed)
				if len(preds) != want {
					t.Fatalf("mode %s |eligible|=%d seed %d: dispersed %d items, want %d",
						mode, nEligible, seed, len(preds), want)
				}
				seen := map[int]bool{}
				okItem := map[int]bool{}
				for _, v := range eligible {
					okItem[v] = true
				}
				for _, p := range preds {
					if seen[p.Item] {
						t.Fatalf("mode %s seed %d: duplicate item %d in D̃ᵢ", mode, seed, p.Item)
					}
					seen[p.Item] = true
					if !okItem[p.Item] {
						t.Fatalf("mode %s seed %d: dispersed ineligible item %d", mode, seed, p.Item)
					}
				}
			}
		}
	}
}

// TestDisperseFusedMatchesScalar pins the scalar dispersal path at the unit
// level: the hard half selected through the chunk-streaming ScoreBlockTopK
// and the final re-scoring must be identical, predictions included, whether
// the model scores whole blocks or one (user, item) pair per kernel call.
func TestDisperseFusedMatchesScalar(t *testing.T) {
	sp := tinySplit(t)
	for _, kind := range []models.Kind{models.KindMF, models.KindNeuMF, models.KindLightGCN} {
		cfg := fastConfig(kind)
		cfg.Rounds = 1
		cfg.Mu = 0.3 // most of α comes from the score-ranked hard half
		fused, err := NewTrainer(sp, cfg)
		if err != nil {
			t.Fatal(err)
		}
		scalar, err := NewTrainer(sp, cfg)
		if err != nil {
			t.Fatal(err)
		}
		forceScalar(scalar)
		fused.RunRound(0)
		scalar.RunRound(0)

		fusedPlan := fused.Server().buildDispersalPlan()
		scalarPlan := scalar.Server().buildDispersalPlan()
		fs, ss := &disperseScratch{}, &disperseScratch{}
		for _, ci := range []int{0, 3, 7} {
			ft, _ := fused.Server().disperseTargetInto(ci, nil)
			st, _ := scalar.Server().disperseTargetInto(ci, nil)
			ds1 := rng.New(99).DeriveN("client", ci)
			ds2 := rng.New(99).DeriveN("client", ci)
			a := fused.Server().disperse(ft, ds1, fusedPlan, fs)
			b := scalar.Server().disperse(st, ds2, scalarPlan, ss)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("%s client %d: fused dispersal %v != scalar %v", kind, ci, a, b)
			}
		}
	}
}
