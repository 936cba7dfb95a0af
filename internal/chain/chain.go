// Package chain is a minimal single-process chain simulator for executing
// arbitrage plans atomically. The paper notes that a loop's swaps should
// execute "in the same transaction by applying flash loan" so the plan
// either completes entirely or reverts; this package reproduces exactly
// that behaviour:
//
//   - State holds pool reserves (exact big.Int arithmetic, Uniswap V2
//     rounding via package amm).
//   - A Tx borrows its initial input (flash loan), runs a sequence of
//     swaps, repays the loan, and keeps the surplus as profit. If the
//     proceeds cannot repay the loan, the transaction reverts and the
//     state is untouched.
//   - Blocks apply transaction batches and advance the clock (the paper
//     cites a ~10 s average block time, which bounds how long a solver may
//     run before its plan goes stale).
package chain

import (
	"errors"
	"fmt"
	"math/big"
	"slices"
	"strings"
	"sync"

	"arbloop/internal/amm"
)

// Errors returned by the simulator.
var (
	ErrUnknownPair   = errors.New("chain: unknown pair")
	ErrDuplicatePair = errors.New("chain: duplicate pair")
	ErrUnfunded      = errors.New("chain: step has no funds for its input token")
	ErrUnprofitable  = errors.New("chain: proceeds cannot repay flash loan")
	ErrBadTx         = errors.New("chain: malformed transaction")
)

// DefaultBlockIntervalSeconds matches the paper's cited ~10 s block time.
const DefaultBlockIntervalSeconds = 10

// poolState is the on-chain reserve record of one pair.
type poolState struct {
	id                 string
	token0, token1     string
	reserve0, reserve1 *big.Int
	feeBps             int64
	// rev is the state's change counter at the pool's last reserve change
	// (see PoolView.Revision).
	rev uint64
}

func (p *poolState) clone() *poolState {
	return &poolState{
		id:       p.id,
		token0:   p.token0,
		token1:   p.token1,
		reserve0: new(big.Int).Set(p.reserve0),
		reserve1: new(big.Int).Set(p.reserve1),
		feeBps:   p.feeBps,
		rev:      p.rev,
	}
}

// State is the chain state: pools plus a block clock. Safe for concurrent
// use.
type State struct {
	mu    sync.RWMutex
	pools map[string]*poolState
	// sorted holds the records of pools in ID order, kept sorted as pools
	// are added, so ordered reads never sort.
	sorted []*poolState
	// rev counts reserve changes across all pools: AddPool, Swap and each
	// committed transaction take the next value.
	rev       uint64
	height    int64
	timestamp int64
	interval  int64
	onBlock   []func(height int64)
}

// NewState creates an empty chain at the given genesis unix time.
func NewState(genesisTime int64) *State {
	return &State{
		pools:     make(map[string]*poolState),
		timestamp: genesisTime,
		interval:  DefaultBlockIntervalSeconds,
	}
}

// SetBlockInterval overrides the seconds-per-block (default 10).
func (s *State) SetBlockInterval(seconds int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if seconds > 0 {
		s.interval = seconds
	}
}

// AddPool registers a pool with integer reserves.
func (s *State) AddPool(id, token0, token1 string, reserve0, reserve1 *big.Int, feeBps int64) error {
	if token0 == token1 {
		return fmt.Errorf("%w: identical tokens in %q", ErrBadTx, id)
	}
	if reserve0 == nil || reserve1 == nil || reserve0.Sign() <= 0 || reserve1.Sign() <= 0 {
		return fmt.Errorf("chain: pool %q needs positive reserves", id)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.pools[id]; ok {
		return fmt.Errorf("%w: %q", ErrDuplicatePair, id)
	}
	s.rev++
	p := &poolState{
		id:       id,
		token0:   token0,
		token1:   token1,
		reserve0: new(big.Int).Set(reserve0),
		reserve1: new(big.Int).Set(reserve1),
		feeBps:   feeBps,
		rev:      s.rev,
	}
	s.pools[id] = p
	i, _ := slices.BinarySearchFunc(s.sorted, id, func(q *poolState, id string) int { return strings.Compare(q.id, id) })
	s.sorted = slices.Insert(s.sorted, i, p)
	return nil
}

// Reserves returns copies of a pool's reserves.
func (s *State) Reserves(id string) (r0, r1 *big.Int, err error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	p, ok := s.pools[id]
	if !ok {
		return nil, nil, fmt.Errorf("%w: %q", ErrUnknownPair, id)
	}
	return new(big.Int).Set(p.reserve0), new(big.Int).Set(p.reserve1), nil
}

// Height returns the current block height.
func (s *State) Height() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.height
}

// Timestamp returns the current chain time (unix seconds).
func (s *State) Timestamp() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.timestamp
}

// SwapStep is one hop of an arbitrage transaction. A nil AmountIn spends
// the executor's entire balance of TokenIn, which is the natural encoding
// of "thread all proceeds into the next pool".
type SwapStep struct {
	PairID   string
	TokenIn  string
	AmountIn *big.Int
}

// Tx is an atomic flash-loan arbitrage: borrow Amount of Borrow, run
// Steps, repay, keep the surplus.
type Tx struct {
	// Borrow is the flash-loaned token.
	Borrow string
	// Amount is the flash-loaned quantity.
	Amount *big.Int
	// Steps are executed in order.
	Steps []SwapStep
}

// Receipt reports an executed (or reverted) transaction.
type Receipt struct {
	// OK is true when the transaction committed.
	OK bool
	// Err is the revert reason when OK is false.
	Err error
	// Profit maps token → net amount kept after repaying the loan.
	Profit map[string]*big.Int
	// Block is the height at which the tx executed.
	Block int64
}

// ExecuteTx runs one transaction atomically against the current state:
// the state mutates only if the transaction succeeds.
func (s *State) ExecuteTx(tx Tx) Receipt {
	s.mu.Lock()
	defer s.mu.Unlock()
	rcpt := s.executeLocked(tx)
	rcpt.Block = s.height
	return rcpt
}

func (s *State) executeLocked(tx Tx) Receipt {
	if tx.Borrow == "" || tx.Amount == nil || tx.Amount.Sign() <= 0 || len(tx.Steps) == 0 {
		return Receipt{Err: fmt.Errorf("%w: need borrow token, positive amount, steps", ErrBadTx)}
	}

	// Stage: copy-on-write of the touched pools only.
	staged := make(map[string]*poolState, len(tx.Steps))
	stagedPool := func(id string) (*poolState, error) {
		if p, ok := staged[id]; ok {
			return p, nil
		}
		p, ok := s.pools[id]
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrUnknownPair, id)
		}
		cp := p.clone()
		staged[id] = cp
		return cp, nil
	}

	balances := map[string]*big.Int{tx.Borrow: new(big.Int).Set(tx.Amount)}
	for i, step := range tx.Steps {
		pool, err := stagedPool(step.PairID)
		if err != nil {
			return Receipt{Err: fmt.Errorf("step %d: %w", i, err)}
		}
		if step.TokenIn != pool.token0 && step.TokenIn != pool.token1 {
			return Receipt{Err: fmt.Errorf("step %d: %w: token %q not in pair %q", i, ErrBadTx, step.TokenIn, step.PairID)}
		}
		spend := step.AmountIn
		if spend == nil {
			spend = balances[step.TokenIn]
		}
		if spend == nil || spend.Sign() <= 0 {
			return Receipt{Err: fmt.Errorf("step %d: %w: token %q", i, ErrUnfunded, step.TokenIn)}
		}
		// Copy: spend may alias the balance entry mutated below.
		amountIn := new(big.Int).Set(spend)
		have := balances[step.TokenIn]
		if have == nil || have.Cmp(amountIn) < 0 {
			return Receipt{Err: fmt.Errorf("step %d: %w: need %s %s", i, ErrUnfunded, amountIn, step.TokenIn)}
		}

		rin, rout := pool.reserve0, pool.reserve1
		tokenOut := pool.token1
		if step.TokenIn == pool.token1 {
			rin, rout = pool.reserve1, pool.reserve0
			tokenOut = pool.token0
		}
		out, err := amm.GetAmountOut(amountIn, rin, rout, pool.feeBps)
		if err != nil {
			return Receipt{Err: fmt.Errorf("step %d: %w", i, err)}
		}
		if out.Sign() <= 0 {
			return Receipt{Err: fmt.Errorf("step %d: %w", i, amm.ErrInsufficientOutputAmount)}
		}
		// Move funds and reserves.
		have.Sub(have, amountIn)
		rin.Add(rin, amountIn)
		rout.Sub(rout, out)
		if b := balances[tokenOut]; b != nil {
			b.Add(b, out)
		} else {
			balances[tokenOut] = out
		}
	}

	// Repay the flash loan.
	borrowBal := balances[tx.Borrow]
	if borrowBal == nil || borrowBal.Cmp(tx.Amount) < 0 {
		short := new(big.Int).Set(tx.Amount)
		if borrowBal != nil {
			short.Sub(short, borrowBal)
		}
		return Receipt{Err: fmt.Errorf("%w: short %s %s", ErrUnprofitable, short, tx.Borrow)}
	}
	borrowBal.Sub(borrowBal, tx.Amount)

	// Commit staged reserves into the live records, which the ID-ordered
	// index shares.
	s.rev++
	for id, p := range staged {
		live := s.pools[id]
		live.reserve0, live.reserve1, live.rev = p.reserve0, p.reserve1, s.rev
	}
	profit := make(map[string]*big.Int)
	for tok, bal := range balances {
		if bal.Sign() > 0 {
			profit[tok] = bal
		}
	}
	return Receipt{OK: true, Profit: profit}
}

// OnBlock registers a callback invoked with the new height after every
// sealed block — the native notification hook a live pool feed subscribes
// to instead of polling. Callbacks run synchronously on the sealing
// goroutine, outside the state lock, so they may read the state freely;
// a slow callback delays block production, so long work belongs behind a
// channel (see feed.Watcher.Notify, which is non-blocking by design).
func (s *State) OnBlock(fn func(height int64)) {
	if fn == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.onBlock = append(s.onBlock, fn)
}

// Block applies a batch of transactions in order (failed transactions
// revert individually, as on a real chain), advances the clock, and
// notifies OnBlock subscribers.
func (s *State) Block(txs []Tx) []Receipt {
	receipts, height, hooks := s.sealBlock(txs)
	// Hooks run outside the lock so they may read the state freely.
	for _, fn := range hooks {
		fn(height)
	}
	return receipts
}

// sealBlock is the locked half of Block, deferred-unlock so a panic in
// transaction execution cannot leave the state mutex held.
func (s *State) sealBlock(txs []Tx) ([]Receipt, int64, []func(int64)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	receipts := make([]Receipt, 0, len(txs))
	s.height++
	s.timestamp += s.interval
	for _, tx := range txs {
		r := s.executeLocked(tx)
		r.Block = s.height
		receipts = append(receipts, r)
	}
	hooks := make([]func(int64), len(s.onBlock))
	copy(hooks, s.onBlock)
	return receipts, s.height, hooks
}

// PoolIDs lists registered pools sorted for deterministic iteration.
func (s *State) PoolIDs() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, len(s.sorted))
	for i, p := range s.sorted {
		out[i] = p.id
	}
	return out
}

// PoolView is one pool as VisitPools presents it. Reserve0 and Reserve1
// are the state's own integers, valid only during the callback: read
// them there, and never retain or modify them.
type PoolView struct {
	ID, Token0, Token1 string
	Reserve0, Reserve1 *big.Int
	FeeBps             int64
	// Revision changes whenever the pool's reserves do (a Swap or a
	// committed transaction touching the pool), never otherwise, and is
	// never reused: an unchanged (ID, Revision) means unchanged reserves.
	// A reverted transaction leaves it alone.
	Revision uint64
}

// VisitPools calls fn on every pool in ID order under a single read
// lock, so one visit sees one state: no swap, transaction or block lands
// between two pools. It stops at fn's first error and returns it. fn
// must not call back into s — a writer queued on the lock would deadlock
// the nested read.
func (s *State) VisitPools(fn func(PoolView) error) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, p := range s.sorted {
		err := fn(PoolView{
			ID: p.id, Token0: p.token0, Token1: p.token1,
			Reserve0: p.reserve0, Reserve1: p.reserve1,
			FeeBps: p.feeBps, Revision: p.rev,
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// PoolTokens returns the token pair of a pool.
func (s *State) PoolTokens(id string) (token0, token1 string, err error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	p, ok := s.pools[id]
	if !ok {
		return "", "", fmt.Errorf("%w: %q", ErrUnknownPair, id)
	}
	return p.token0, p.token1, nil
}

// PoolFee returns a pool's fee in basis points.
func (s *State) PoolFee(id string) (int64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	p, ok := s.pools[id]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrUnknownPair, id)
	}
	return p.feeBps, nil
}

// Swap executes a single one-way swap against a pool outside the
// flash-loan machinery — the retail/noise-trader path. It returns the
// output amount.
func (s *State) Swap(pairID, tokenIn string, amountIn *big.Int) (*big.Int, error) {
	if amountIn == nil || amountIn.Sign() <= 0 {
		return nil, fmt.Errorf("%w: non-positive input", ErrBadTx)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.pools[pairID]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownPair, pairID)
	}
	if tokenIn != p.token0 && tokenIn != p.token1 {
		return nil, fmt.Errorf("%w: token %q not in pair %q", ErrBadTx, tokenIn, pairID)
	}
	rin, rout := p.reserve0, p.reserve1
	if tokenIn == p.token1 {
		rin, rout = p.reserve1, p.reserve0
	}
	out, err := amm.GetAmountOut(amountIn, rin, rout, p.feeBps)
	if err != nil {
		return nil, err
	}
	if out.Sign() <= 0 || out.Cmp(rout) >= 0 {
		return nil, amm.ErrInsufficientLiquidity
	}
	rin.Add(rin, amountIn)
	rout.Sub(rout, out)
	s.rev++
	p.rev = s.rev
	return out, nil
}
