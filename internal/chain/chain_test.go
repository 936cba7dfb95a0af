package chain

import (
	"errors"
	"math/big"
	"slices"
	"sync"
	"testing"
)

func bi(v int64) *big.Int { return big.NewInt(v) }

// paperState sets up the Section V pools scaled ×10⁶ for integer headroom.
func paperState(t *testing.T) *State {
	t.Helper()
	s := NewState(1_693_526_400) // 2023-09-01 00:00 UTC
	const scale = 1_000_000
	add := func(id, t0, t1 string, r0, r1 int64) {
		t.Helper()
		if err := s.AddPool(id, t0, t1, bi(r0*scale), bi(r1*scale), 30); err != nil {
			t.Fatal(err)
		}
	}
	add("p1", "X", "Y", 100, 200)
	add("p2", "Y", "Z", 300, 200)
	add("p3", "Z", "X", 200, 400)
	return s
}

func TestAddPoolValidation(t *testing.T) {
	s := NewState(0)
	if err := s.AddPool("p", "X", "X", bi(1), bi(1), 30); err == nil {
		t.Error("identical tokens: want error")
	}
	if err := s.AddPool("p", "X", "Y", bi(0), bi(1), 30); err == nil {
		t.Error("zero reserve: want error")
	}
	if err := s.AddPool("p", "X", "Y", nil, bi(1), 30); err == nil {
		t.Error("nil reserve: want error")
	}
	if err := s.AddPool("p", "X", "Y", bi(1000), bi(1000), 30); err != nil {
		t.Fatal(err)
	}
	if err := s.AddPool("p", "X", "Y", bi(1000), bi(1000), 30); !errors.Is(err, ErrDuplicatePair) {
		t.Errorf("duplicate pool error = %v", err)
	}
}

func TestStateAccessors(t *testing.T) {
	s := paperState(t)
	ids := s.PoolIDs()
	if len(ids) != 3 || ids[0] != "p1" {
		t.Errorf("PoolIDs = %v", ids)
	}
	t0, t1, err := s.PoolTokens("p2")
	if err != nil || t0 != "Y" || t1 != "Z" {
		t.Errorf("PoolTokens(p2) = %q, %q, %v", t0, t1, err)
	}
	if _, _, err := s.PoolTokens("nope"); !errors.Is(err, ErrUnknownPair) {
		t.Errorf("unknown pair error = %v", err)
	}
	r0, r1, err := s.Reserves("p1")
	if err != nil || r0.Cmp(bi(100_000_000)) != 0 || r1.Cmp(bi(200_000_000)) != 0 {
		t.Errorf("Reserves(p1) = %s, %s, %v", r0, r1, err)
	}
	if _, _, err := s.Reserves("nope"); !errors.Is(err, ErrUnknownPair) {
		t.Errorf("unknown reserves error = %v", err)
	}
}

func TestExecuteProfitableArbitrage(t *testing.T) {
	s := paperState(t)
	// Paper: borrowing ~27 X (here 27e6 integer units) yields ~16.8e6 X.
	tx := Tx{
		Borrow: "X",
		Amount: bi(27_000_000),
		Steps: []SwapStep{
			{PairID: "p1", TokenIn: "X"},
			{PairID: "p2", TokenIn: "Y"},
			{PairID: "p3", TokenIn: "Z"},
		},
	}
	rcpt := s.ExecuteTx(tx)
	if !rcpt.OK {
		t.Fatalf("tx reverted: %v", rcpt.Err)
	}
	profit := rcpt.Profit["X"]
	if profit == nil {
		t.Fatal("no X profit recorded")
	}
	got := profit.Int64()
	if got < 16_500_000 || got > 17_100_000 {
		t.Errorf("profit = %d, want ≈ 16.8e6 (paper)", got)
	}
	// Intermediate tokens fully consumed.
	if rcpt.Profit["Y"] != nil || rcpt.Profit["Z"] != nil {
		t.Errorf("unexpected intermediate profit: %v", rcpt.Profit)
	}
	// Reserves moved.
	r0, _, err := s.Reserves("p1")
	if err != nil {
		t.Fatal(err)
	}
	if r0.Cmp(bi(127_000_000)) != 0 {
		t.Errorf("p1 reserve0 = %s, want 127000000", r0)
	}
}

func TestExecuteUnprofitableReverts(t *testing.T) {
	s := paperState(t)
	// Reverse direction is guaranteed to lose money.
	tx := Tx{
		Borrow: "X",
		Amount: bi(10_000_000),
		Steps: []SwapStep{
			{PairID: "p3", TokenIn: "X"},
			{PairID: "p2", TokenIn: "Z"},
			{PairID: "p1", TokenIn: "Y"},
		},
	}
	before, _, err := s.Reserves("p3")
	if err != nil {
		t.Fatal(err)
	}
	_ = before
	r3b, _, _ := s.Reserves("p3")
	rcpt := s.ExecuteTx(tx)
	if rcpt.OK {
		t.Fatal("losing tx committed")
	}
	if !errors.Is(rcpt.Err, ErrUnprofitable) {
		t.Errorf("revert reason = %v, want ErrUnprofitable", rcpt.Err)
	}
	// State untouched after revert.
	r3a, _, err := s.Reserves("p3")
	if err != nil {
		t.Fatal(err)
	}
	if r3a.Cmp(r3b) != 0 {
		t.Error("revert leaked state changes")
	}
}

func TestExecuteTxValidation(t *testing.T) {
	s := paperState(t)
	tests := []struct {
		name string
		tx   Tx
		want error
	}{
		{name: "empty", tx: Tx{}, want: ErrBadTx},
		{name: "zero amount", tx: Tx{Borrow: "X", Amount: bi(0), Steps: []SwapStep{{PairID: "p1", TokenIn: "X"}}}, want: ErrBadTx},
		{name: "no steps", tx: Tx{Borrow: "X", Amount: bi(1)}, want: ErrBadTx},
		{name: "unknown pair", tx: Tx{Borrow: "X", Amount: bi(100), Steps: []SwapStep{{PairID: "nope", TokenIn: "X"}}}, want: ErrUnknownPair},
		{name: "token not in pair", tx: Tx{Borrow: "X", Amount: bi(100), Steps: []SwapStep{{PairID: "p2", TokenIn: "X"}}}, want: ErrBadTx},
		{name: "unfunded step", tx: Tx{Borrow: "X", Amount: bi(100), Steps: []SwapStep{{PairID: "p2", TokenIn: "Y"}}}, want: ErrUnfunded},
		{name: "overspend", tx: Tx{Borrow: "X", Amount: bi(100), Steps: []SwapStep{{PairID: "p1", TokenIn: "X", AmountIn: bi(1_000)}}}, want: ErrUnfunded},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			rcpt := s.ExecuteTx(tt.tx)
			if rcpt.OK {
				t.Fatal("tx committed")
			}
			if !errors.Is(rcpt.Err, tt.want) {
				t.Errorf("error = %v, want %v", rcpt.Err, tt.want)
			}
		})
	}
}

func TestExecutePartialSpendKeepsRemainder(t *testing.T) {
	s := paperState(t)
	tx := Tx{
		Borrow: "X",
		Amount: bi(30_000_000),
		Steps: []SwapStep{
			// Spend only 27e6 of the 30e6 borrowed.
			{PairID: "p1", TokenIn: "X", AmountIn: bi(27_000_000)},
			{PairID: "p2", TokenIn: "Y"},
			{PairID: "p3", TokenIn: "Z"},
		},
	}
	rcpt := s.ExecuteTx(tx)
	if !rcpt.OK {
		t.Fatalf("tx reverted: %v", rcpt.Err)
	}
	// Profit should match the 27e6 plan: leftover 3e6 counts toward loan
	// repayment, net profit unchanged.
	got := rcpt.Profit["X"].Int64()
	if got < 16_500_000 || got > 17_100_000 {
		t.Errorf("profit = %d, want ≈ 16.8e6", got)
	}
}

func TestBlockAdvancesClockAndAppliesTxs(t *testing.T) {
	s := paperState(t)
	h0, t0 := s.Height(), s.Timestamp()

	good := Tx{Borrow: "X", Amount: bi(27_000_000), Steps: []SwapStep{
		{PairID: "p1", TokenIn: "X"}, {PairID: "p2", TokenIn: "Y"}, {PairID: "p3", TokenIn: "Z"},
	}}
	bad := Tx{Borrow: "X", Amount: bi(1)}

	receipts := s.Block([]Tx{good, bad})
	if len(receipts) != 2 {
		t.Fatalf("receipts = %d", len(receipts))
	}
	if !receipts[0].OK || receipts[1].OK {
		t.Errorf("receipt status = %v, %v; want ok, failed", receipts[0].OK, receipts[1].OK)
	}
	if receipts[0].Block != h0+1 {
		t.Errorf("tx block = %d, want %d", receipts[0].Block, h0+1)
	}
	if s.Height() != h0+1 {
		t.Errorf("height = %d, want %d", s.Height(), h0+1)
	}
	if s.Timestamp() != t0+DefaultBlockIntervalSeconds {
		t.Errorf("timestamp = %d, want +%d", s.Timestamp(), DefaultBlockIntervalSeconds)
	}
}

func TestSetBlockInterval(t *testing.T) {
	s := paperState(t)
	s.SetBlockInterval(12)
	t0 := s.Timestamp()
	s.Block(nil)
	if s.Timestamp() != t0+12 {
		t.Errorf("timestamp advanced by %d, want 12", s.Timestamp()-t0)
	}
	s.SetBlockInterval(0) // ignored
	t1 := s.Timestamp()
	s.Block(nil)
	if s.Timestamp() != t1+12 {
		t.Error("zero interval should be ignored")
	}
}

func TestSecondArbitrageLessProfitable(t *testing.T) {
	s := paperState(t)
	plan := func() Receipt {
		return s.ExecuteTx(Tx{Borrow: "X", Amount: bi(27_000_000), Steps: []SwapStep{
			{PairID: "p1", TokenIn: "X"}, {PairID: "p2", TokenIn: "Y"}, {PairID: "p3", TokenIn: "Z"},
		}})
	}
	first := plan()
	if !first.OK {
		t.Fatalf("first tx reverted: %v", first.Err)
	}
	second := plan()
	if second.OK {
		// The same plan re-run after the pools moved must earn less (the
		// first execution consumed the opportunity).
		if second.Profit["X"].Cmp(first.Profit["X"]) >= 0 {
			t.Errorf("second run profit %s ≥ first %s", second.Profit["X"], first.Profit["X"])
		}
	}
}

func TestConcurrentExecution(t *testing.T) {
	s := paperState(t)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				s.ExecuteTx(Tx{Borrow: "X", Amount: bi(100_000), Steps: []SwapStep{
					{PairID: "p1", TokenIn: "X"}, {PairID: "p2", TokenIn: "Y"}, {PairID: "p3", TokenIn: "Z"},
				}})
			}
		}()
	}
	wg.Wait()
	r0, r1, err := s.Reserves("p1")
	if err != nil || r0.Sign() <= 0 || r1.Sign() <= 0 {
		t.Errorf("reserves after concurrency: %s, %s, %v", r0, r1, err)
	}
}

func TestDirectSwap(t *testing.T) {
	s := paperState(t)
	out, err := s.Swap("p1", "X", bi(1_000_000))
	if err != nil {
		t.Fatal(err)
	}
	if out.Sign() <= 0 {
		t.Errorf("swap output = %s", out)
	}
	r0, r1, err := s.Reserves("p1")
	if err != nil {
		t.Fatal(err)
	}
	if r0.Cmp(bi(101_000_000)) != 0 {
		t.Errorf("reserve0 after direct swap = %s, want 101000000", r0)
	}
	wantR1 := new(big.Int).Sub(bi(200_000_000), out)
	if r1.Cmp(wantR1) != 0 {
		t.Errorf("reserve1 = %s, want %s", r1, wantR1)
	}
}

func TestDirectSwapErrors(t *testing.T) {
	s := paperState(t)
	if _, err := s.Swap("nope", "X", bi(1)); !errors.Is(err, ErrUnknownPair) {
		t.Errorf("unknown pair error = %v", err)
	}
	if _, err := s.Swap("p1", "Q", bi(1)); !errors.Is(err, ErrBadTx) {
		t.Errorf("unknown token error = %v", err)
	}
	if _, err := s.Swap("p1", "X", bi(0)); !errors.Is(err, ErrBadTx) {
		t.Errorf("zero amount error = %v", err)
	}
	if _, err := s.Swap("p1", "X", nil); !errors.Is(err, ErrBadTx) {
		t.Errorf("nil amount error = %v", err)
	}
}

func TestOnBlockHook(t *testing.T) {
	s := paperState(t)
	var got []int64
	s.OnBlock(func(h int64) {
		// Callbacks run outside the state lock: reads must not deadlock.
		if s.Height() != h {
			t.Errorf("state height %d != notified %d", s.Height(), h)
		}
		got = append(got, h)
	})
	s.OnBlock(nil) // ignored

	s.Block(nil)
	s.Block(nil)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("notified heights = %v, want [1 2]", got)
	}

	// ExecuteTx is not a block: no notification.
	s.ExecuteTx(Tx{Borrow: "X", Amount: bi(1), Steps: []SwapStep{{PairID: "p1", TokenIn: "X"}}})
	if len(got) != 2 {
		t.Errorf("ExecuteTx notified: %v", got)
	}
}

// revisions visits the state and returns each pool's revision by ID,
// checking the visit runs in ID order.
func revisions(t *testing.T, s *State) map[string]uint64 {
	t.Helper()
	revs := map[string]uint64{}
	last := ""
	if err := s.VisitPools(func(v PoolView) error {
		if v.ID <= last {
			t.Fatalf("VisitPools visited %q after %q", v.ID, last)
		}
		last = v.ID
		revs[v.ID] = v.Revision
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return revs
}

// VisitPools walks pools in ID order whatever order they were added in,
// and a pool's revision moves exactly when its reserves do: a swap or a
// committed transaction moves the pools it touched to a revision never
// seen before; a reverted transaction and an empty block move nothing.
func TestVisitPoolsOrderAndRevisions(t *testing.T) {
	s := NewState(0)
	for _, id := range []string{"p3", "p1", "p2"} {
		if err := s.AddPool(id, "X", "Y", bi(1_000_000), bi(2_000_000), 30); err != nil {
			t.Fatal(err)
		}
	}
	if ids := s.PoolIDs(); len(ids) != 3 || ids[0] != "p1" || ids[1] != "p2" || ids[2] != "p3" {
		t.Fatalf("PoolIDs = %v", ids)
	}
	s = paperState(t)
	seen := map[uint64]bool{}
	prev := revisions(t, s)
	for _, r := range prev {
		seen[r] = true
	}
	step := func(what string, moved ...string) {
		t.Helper()
		cur := revisions(t, s)
		for id, r := range cur {
			want := prev[id]
			if slices.Contains(moved, id) {
				if r == want || seen[r] {
					t.Errorf("%s: %s revision %d, want a new one (was %d)", what, id, r, want)
				}
			} else if r != want {
				t.Errorf("%s: %s revision %d, want %d unchanged", what, id, r, want)
			}
		}
		for _, r := range cur {
			seen[r] = true
		}
		prev = cur
	}

	if _, err := s.Swap("p2", "Y", bi(1_000)); err != nil {
		t.Fatal(err)
	}
	step("swap", "p2")
	if rc := s.ExecuteTx(Tx{Borrow: "X", Amount: bi(10_000_000), Steps: []SwapStep{
		{PairID: "p3", TokenIn: "X"}, {PairID: "p2", TokenIn: "Z"}, {PairID: "p1", TokenIn: "Y"},
	}}); rc.OK {
		t.Fatal("losing tx committed")
	}
	step("reverted tx")
	if rc := s.ExecuteTx(Tx{Borrow: "X", Amount: bi(27_000_000), Steps: []SwapStep{
		{PairID: "p1", TokenIn: "X"}, {PairID: "p2", TokenIn: "Y"},
	}}); rc.OK {
		t.Fatal("unrepaid tx committed")
	}
	step("tx reverted after a staged hop")
	if rc := s.ExecuteTx(Tx{Borrow: "X", Amount: bi(27_000_000), Steps: []SwapStep{
		{PairID: "p1", TokenIn: "X"}, {PairID: "p2", TokenIn: "Y"}, {PairID: "p3", TokenIn: "Z"},
	}}); !rc.OK {
		t.Fatalf("tx reverted: %v", rc.Err)
	}
	step("committed tx", "p1", "p2", "p3")
	s.Block(nil)
	step("empty block")

	stop := errors.New("stop")
	visits := 0
	if err := s.VisitPools(func(PoolView) error { visits++; return stop }); !errors.Is(err, stop) || visits != 1 {
		t.Errorf("VisitPools = %v after %d visits, want the callback's error after 1", err, visits)
	}
}
