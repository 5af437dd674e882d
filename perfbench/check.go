package main

import (
	"fmt"
	"math"

	"ptffedrec/internal/fed"
)

// historyDiff returns "" when the two histories are bitwise-identical — every
// RoundStats field, the final Recall and NDCG, and the mean attack F1 — and
// otherwise a description of the first difference.
func historyDiff(got, want *fed.History) string {
	if len(got.Rounds) != len(want.Rounds) {
		return fmt.Sprintf("%d rounds, want %d", len(got.Rounds), len(want.Rounds))
	}
	for i := range got.Rounds {
		if !roundBitsEqual(got.Rounds[i], want.Rounds[i]) {
			return fmt.Sprintf("round %d: %+v, want %+v", i, got.Rounds[i], want.Rounds[i])
		}
	}
	if !bitsEqual(got.Final.Recall, want.Final.Recall) || !bitsEqual(got.Final.NDCG, want.Final.NDCG) || got.Final.Users != want.Final.Users {
		return fmt.Sprintf("final %+v, want %+v", got.Final, want.Final)
	}
	if !bitsEqual(got.MeanAttackF1, want.MeanAttackF1) {
		return fmt.Sprintf("mean attack F1 %v, want %v", got.MeanAttackF1, want.MeanAttackF1)
	}
	return ""
}

// roundBitsEqual compares two rounds field by field with floats compared by
// bit pattern, so NaNs in both histories at the same place still match.
func roundBitsEqual(a, b fed.RoundStats) bool {
	return a.Round == b.Round && a.Participants == b.Participants && a.Dropped == b.Dropped &&
		bitsEqual(a.ClientLoss, b.ClientLoss) && bitsEqual(a.ServerLoss, b.ServerLoss) &&
		bitsEqual(a.AttackF1, b.AttackF1) && a.UploadBytes == b.UploadBytes &&
		a.DispersBytes == b.DispersBytes && bitsEqual(a.Recall, b.Recall) &&
		bitsEqual(a.NDCG, b.NDCG) && a.Evaluated == b.Evaluated
}

func bitsEqual(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// slots counts a history's cohort slots and the slots whose upload reached
// the server.
func slots(h *fed.History) (attempted, responded int64) {
	for _, rs := range h.Rounds {
		attempted += int64(rs.Participants)
		responded += int64(rs.Participants - rs.Dropped)
	}
	return attempted, responded
}

// lostSlots counts h's cohort slots lost beyond the dropouts the reference
// (the in-process run under the same FaultPlan) shows: those dropouts are the
// plan's, anything more never reached the server.
func lostSlots(h, ref *fed.History) int64 {
	var lost int64
	for i, rs := range h.Rounds {
		want := 0
		if i < len(ref.Rounds) {
			want = ref.Rounds[i].Dropped
		}
		lost += int64(max(0, rs.Dropped-want))
	}
	return lost
}
