package core

import (
	"testing"

	"repro/internal/crypto"
	"repro/internal/lane"
	"repro/internal/types"
)

// tipFixture drives four lane states to the shape cut assembly has to
// choose over: lane 0's car 1 is certified and its car 2 (carrying car
// 1's PoA) reached replica 1 uncertified; lane 2's car 1 reached replica
// 1 uncertified too.
func tipFixture(t *testing.T) []*lane.State {
	t.Helper()
	const n = 4
	suite := crypto.NewNopSuite(n)
	states := make([]*lane.State, n)
	for i := range states {
		states[i] = lane.NewState(lane.Config{
			Committee: types.NewCommittee(n),
			Self:      types.NodeID(i),
			Signer:    suite.Signer(types.NodeID(i)),
			Verifier:  suite.Verifier(),
		})
	}
	batch := func(origin types.NodeID, seq uint64) *types.Batch {
		return types.NewSyntheticBatch(origin, seq, 100, 51200, 0, 0)
	}
	p1 := states[0].AddBatch(batch(0, 1))
	for i := 1; i < n; i++ {
		votes, err := states[i].OnProposal(p1)
		if err != nil {
			t.Fatalf("r%d vote: %v", i, err)
		}
		for _, v := range votes {
			if _, _, err := states[0].OnVote(v); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !states[0].CertifiedTip(0).Certified() {
		t.Fatal("car 1 never certified")
	}
	p2 := states[0].AddBatch(batch(0, 2))
	if p2 == nil {
		t.Fatal("car 2 blocked")
	}
	if _, err := states[1].OnProposal(p2); err != nil {
		t.Fatal(err)
	}
	if _, err := states[1].OnProposal(states[2].AddBatch(batch(2, 1))); err != nil {
		t.Fatal(err)
	}
	return states
}

// feed loads a replica's lane view s into a tip table the way the shard
// notices do.
func feed(tt *tipTable, s *lane.State, self types.NodeID) {
	for i := range tt.cert {
		l := types.NodeID(i)
		if l == self {
			tt.ownTip, tt.ownCert = s.OptimisticTip(l), s.CertifiedTip(l)
		} else {
			tt.updateLane(l, s.CertifiedTip(l), s.OptimisticTip(l))
		}
	}
}

func TestTipTableAssembleModes(t *testing.T) {
	states := tipFixture(t)
	never := func(types.NodeID) bool { return false }
	always := func(types.NodeID) bool { return true }

	tt := newTipTable(4, 1)
	feed(tt, states[1], 1)
	cert := tt.assemble(1, never)
	if cert.Tips[0].Position != 1 || !cert.Tips[0].Certified() {
		t.Fatalf("certified cut tip = %+v", cert.Tips[0])
	}
	opt := tt.assemble(1, always)
	if opt.Tips[0].Position != 2 || opt.Tips[0].Certified() {
		t.Fatalf("optimistic cut tip = %+v", opt.Tips[0])
	}

	// The proposer's own cut uses its leader tip (uncertified allowed).
	own := newTipTable(4, 0)
	feed(own, states[0], 0)
	if tip := own.assemble(0, never).Tips[0]; tip.Position != 2 {
		t.Fatalf("leader tip = %+v", tip)
	}
}

// TestCutReputationDowngradesOneLane: with §B.1 reputation on, a lane
// whose standing fell to repOptimisticMin is cut at its certified tip
// while the other lanes stay optimistic.
func TestCutReputationDowngradesOneLane(t *testing.T) {
	states := tipFixture(t)
	nd := NewNode(Config{
		Committee:      types.NewCommittee(4),
		Self:           1,
		Suite:          crypto.NewNopSuite(4),
		OptimisticTips: true,
		Reputation:     true,
	})
	feed(nd.tips, states[1], 1)
	nd.reputation[0] = repOptimisticMin

	cut := (*cutProvider)(nd).AssembleCut(true)
	if tip := cut.Tips[0]; tip.Position != 1 || !tip.Certified() {
		t.Fatalf("downgraded lane 0 tip = %+v, want certified position 1", tip)
	}
	if tip := cut.Tips[2]; tip.Position != 1 || tip.Certified() {
		t.Fatalf("lane 2 tip = %+v, want optimistic position 1", tip)
	}
	if tip := (*cutProvider)(nd).AssembleCut(false).Tips[2]; tip.Position != 0 {
		t.Fatalf("certified cut lane 2 tip = %+v, want genesis", tip)
	}
}
