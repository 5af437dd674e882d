package models

import (
	"testing"

	"ptffedrec/internal/nn"
	"ptffedrec/internal/tensor"
)

// TestScoreBlockLogitsContract pins the sigmoid-placement contract on every
// model kind (dense and lazy): ScoreItems must equal ScoreBlockLogitsInto
// followed by the element-wise sigmoid, bitwise — the identity that lets
// selection run on raw logits and pay σ only for winners.
func TestScoreBlockLogitsContract(t *testing.T) {
	for _, kind := range []Kind{KindMF, KindNeuMF, KindNGCF, KindLightGCN} {
		for _, lazy := range []bool{false, true} {
			m := blockModel(t, kind, lazy)
			for _, items := range raggedLists(blockConfig().NumItems) {
				for u := 0; u < 3; u++ {
					logits := make([]float64, len(items))
					m.ScoreBlockLogitsInto(logits, u, items)
					probs := m.ScoreItems(u, items)
					for i := range items {
						if want := nn.Sigmoid(logits[i]); probs[i] != want {
							t.Fatalf("%s lazy=%v u=%d item %d: ScoreItems=%v, σ(logit)=%v (logit=%v)",
								kind, lazy, u, items[i], probs[i], want, logits[i])
						}
					}
				}
			}
		}
	}
}

// TestScoreUsersBlockLogitsContract pins the multi-user side of the contract
// on every model kind: each row of ScoreUsersBlockLogitsInto must equal the
// single-user ScoreBlockLogitsInto for that user bitwise (row independence —
// the property that makes batched evaluation bitwise-identical to per-user
// evaluation).
func TestScoreUsersBlockLogitsContract(t *testing.T) {
	cfg := blockConfig()
	users := []int{0, 2, 1, 4, 2}
	for _, kind := range []Kind{KindMF, KindNeuMF, KindNGCF, KindLightGCN} {
		for _, lazy := range []bool{false, true} {
			m := blockModel(t, kind, lazy)
			for _, items := range raggedLists(cfg.NumItems) {
				if len(items) == 0 {
					continue
				}
				logits := tensor.New(len(users), len(items))
				m.ScoreUsersBlockLogitsInto(logits, users, items)
				row := make([]float64, len(items))
				for r, u := range users {
					m.ScoreBlockLogitsInto(row, u, items)
					for i := range items {
						if logits.At(r, i) != row[i] {
							t.Fatalf("%s lazy=%v user %d item %d: batched logit %v != single-user logit %v",
								kind, lazy, u, items[i], logits.At(r, i), row[i])
						}
					}
				}
			}
		}
	}
}
