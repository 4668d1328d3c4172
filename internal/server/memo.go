package server

import (
	"container/list"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/api"
	"repro/internal/harness"
	"repro/internal/sparse"
)

// operandMemoEntries bounds an OperandMemo (LRU-evicted). An entry holds
// two short strings, so a thousand of them weigh a few hundred KiB — room
// for a working set far beyond what a shard's artifact cache holds.
const operandMemoEntries = 1024

// OperandMemo remembers, by the SHA-256 of an inline operand's bytes
// (api.InlineBytes.Sum), the identity their first successful parse
// produced, so a tier that meets the same bytes again resolves them without
// parsing: the router routes a repeat operand on the remembered key, and a
// shard whose artifact cache holds the entry serves it from there — on a
// cache miss the identity's Build parses, as it builds the matrix.
// Identical bytes parse to an identical outcome, and SHA-256 makes a forged
// match infeasible, so a remembered identity is the one a parse would
// produce. An operand is remembered once it parses and validates
// (api.InlineCSR.ToCSR); one the shard then refuses in ShiftK is
// remembered too, and refused again by the Build of its recalled identity,
// which caches nothing. The router and each shard own one. Safe for
// concurrent use.
type OperandMemo struct {
	mu      sync.Mutex
	entries map[[sha256.Size]byte]*list.Element
	ll      *list.List // of *memoEntry; front = most recently used

	parsed     atomic.Int64
	remembered atomic.Int64
}

// memoEntry is one remembered identity, without its Build.
type memoEntry struct {
	sum        [sha256.Size]byte
	key, label string
	n          int
}

// NewOperandMemo returns an empty memo.
func NewOperandMemo() *OperandMemo {
	return &OperandMemo{entries: make(map[[sha256.Size]byte]*list.Element), ll: list.New()}
}

// Stats reports the operands this tier parsed — at identity resolution or
// in a cache fill's Build — and those it resolved from the memo.
func (m *OperandMemo) Stats() api.InlineStats {
	return api.InlineStats{Parsed: m.parsed.Load(), Remembered: m.remembered.Load()}
}

// Decode is the decode rule of both tiers — the shard's admission and the
// router's routing key: src must be exactly one JSON value (anything but
// whitespace after it is refused), which is decoded into body, defaulted
// and validated, and the identity of its matrix (axes, the scenario axes
// body carries) is resolved. body is a *api.SolveRequest or a
// *api.BatchSolveRequest. One walk (api.SplitInline) validates src and
// splits out its inline operand; encoding/json then decodes the rest, so it
// never scans the operand, and refuses an invalid src itself, in the words
// of its own syntax error. The operand is resolved through the memo, and
// axes.Inline is left an empty InlineCSR that marks it present — the
// identity, not the body, carries it. Every error it returns is the
// client's (400).
func (m *OperandMemo) Decode(src []byte, body SolveBody, axes *api.SolveRequest) (Identity, error) {
	op, rest := api.SplitInline(src)
	if err := json.Unmarshal(rest, body); err != nil {
		return Identity{}, fmt.Errorf("decoding request: %w", err)
	}
	if op.Present() {
		axes.Inline = new(api.InlineCSR)
	}
	body.WithDefaults()
	if err := body.Validate(); err != nil {
		return Identity{}, err
	}
	if !op.Present() {
		// An operand a later "inline":null dropped is still refused where
		// encoding/json refuses it.
		if _, err := op.Parse(); err != nil {
			return Identity{}, fmt.Errorf("inline matrix: %w", err)
		}
		return ResolveIdentity(axes)
	}
	return m.resolve(&op)
}

// resolve derives the identity of a Present operand: recalled by the
// SHA-256 of its bytes when the memo holds them, with a Build that parses
// them; parsed and remembered otherwise.
func (m *OperandMemo) resolve(op *api.InlineBytes) (Identity, error) {
	sum := op.Sum()
	if e, ok := m.recall(sum); ok {
		m.remembered.Add(1)
		return Identity{
			Key:   e.key,
			Label: e.label,
			Spec:  harness.MatrixSpec{Gen: "inline", N: e.n},
			Build: func() (*sparse.CSR, error) {
				a, err := m.toCSR(op)
				if err != nil {
					return nil, err
				}
				return withShift(a)
			},
		}, nil
	}
	a, err := m.toCSR(op)
	if err != nil {
		return Identity{}, err
	}
	id := inlineIdentity(a)
	m.remember(&memoEntry{sum: sum, key: id.Key, label: id.Label, n: a.Rows})
	return id, nil
}

// toCSR parses and validates an inline operand, counting the parse.
func (m *OperandMemo) toCSR(op *api.InlineBytes) (*sparse.CSR, error) {
	m.parsed.Add(1)
	return op.ToCSR()
}

func (m *OperandMemo) recall(sum [sha256.Size]byte) (memoEntry, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	el, ok := m.entries[sum]
	if !ok {
		return memoEntry{}, false
	}
	m.ll.MoveToFront(el)
	return *el.Value.(*memoEntry), true
}

func (m *OperandMemo) remember(e *memoEntry) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if el, ok := m.entries[e.sum]; ok {
		m.ll.MoveToFront(el)
		return
	}
	m.entries[e.sum] = m.ll.PushFront(e)
	if m.ll.Len() > operandMemoEntries {
		back := m.ll.Back()
		m.ll.Remove(back)
		delete(m.entries, back.Value.(*memoEntry).sum)
	}
}
