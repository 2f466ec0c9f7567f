// Package policy implements the two syscall-policy enforcement layers
// the kernel composes on top of the paper's interception mechanisms:
//
//   - Privilege regions (after "Making 'syscall' a Privilege not a
//     Right"): a per-task set of code ranges that are allowed to issue
//     syscalls. The set is mutable while the task bootstraps (load-time
//     image registration plus a prctl-style guest API) and seals at the
//     first syscall that is not itself a policy prctl; from then on any
//     SYSCALL whose instruction pointer falls outside the sealed set is
//     a violation.
//
//   - SFIP (after "SFIP: Coarse-Grained Syscall-Flow-Integrity
//     Protection"): a per-guest automaton over syscall numbers — a
//     digraph of legal (from, to) transitions — advanced on every
//     dispatched call. A transition absent from the profile is a
//     violation.
//
// Both layers are pure data structures here; the kernel owns placement
// of the checkpoints, the cost model charges, and the kill semantics.
//
// Mechanism invariance contract: the kernel consults these structures
// only for application-level syscalls (never host-synthesised ones, see
// kernel.Syscall), and a Profile only tracks an explicit alphabet of
// syscall numbers. Numbers outside the alphabet do not advance the
// automaton — that is what keeps the automaton state identical across
// interposition mechanisms, which wrap some syscalls (e.g. lazypoline's
// rt_sigaction interposition, SUD's rt_sigreturn traffic) in
// mechanism-internal calls that fire different numbers of times per
// mechanism.
package policy

import (
	"errors"
	"sort"
)

// Start is the SFIP automaton's initial state: the distinguished
// "no syscall issued yet" node, never a valid syscall number.
const Start int64 = -1

// ErrSealed is returned by RegionSet.Add after the set has sealed.
var ErrSealed = errors.New("policy: region set is sealed")

// Range is one privileged code range [Lo, Hi).
type Range struct {
	Lo, Hi uint64
}

// RegionSet is a per-task set of privileged code ranges. It is mutable
// until Seal, immutable after — a sealed set may be shared across tasks
// (fork inherits the parent's set by reference).
type RegionSet struct {
	sealed bool
	ranges []Range // sorted by Lo, non-overlapping after normalize
}

// NewRegionSet returns an empty, unsealed set.
func NewRegionSet() *RegionSet { return &RegionSet{} }

// Add registers [lo, lo+length) as privileged. It fails once the set is
// sealed; a zero-length range is ignored.
func (s *RegionSet) Add(lo, length uint64) error {
	if s.sealed {
		return ErrSealed
	}
	if length == 0 {
		return nil
	}
	s.ranges = append(s.ranges, Range{Lo: lo, Hi: lo + length})
	return nil
}

// Seal freezes the set. Idempotent.
func (s *RegionSet) Seal() {
	if s.sealed {
		return
	}
	s.normalize()
	s.sealed = true
}

// Sealed reports whether the set is frozen.
func (s *RegionSet) Sealed() bool { return s.sealed }

// Contains reports whether addr falls inside a privileged range.
func (s *RegionSet) Contains(addr uint64) bool {
	if !s.sealed {
		// Pre-seal lookups (not used by the kernel checkpoint, which
		// seals first) scan linearly so the answer is still correct.
		for _, r := range s.ranges {
			if addr >= r.Lo && addr < r.Hi {
				return true
			}
		}
		return false
	}
	i := sort.Search(len(s.ranges), func(i int) bool { return s.ranges[i].Hi > addr })
	return i < len(s.ranges) && addr >= s.ranges[i].Lo
}

// Ranges returns the current ranges (normalized once sealed).
func (s *RegionSet) Ranges() []Range {
	out := make([]Range, len(s.ranges))
	copy(out, s.ranges)
	return out
}

// normalize sorts and merges overlapping/adjacent ranges.
func (s *RegionSet) normalize() {
	if len(s.ranges) == 0 {
		return
	}
	sort.Slice(s.ranges, func(i, j int) bool { return s.ranges[i].Lo < s.ranges[j].Lo })
	merged := s.ranges[:1]
	for _, r := range s.ranges[1:] {
		last := &merged[len(merged)-1]
		if r.Lo <= last.Hi {
			if r.Hi > last.Hi {
				last.Hi = r.Hi
			}
			continue
		}
		merged = append(merged, r)
	}
	s.ranges = merged
}

// Profile is an SFIP transition profile: an explicit alphabet of tracked
// syscall numbers plus the set of legal (from, to) edges over it, with
// Start as the distinguished entry state.
//
// A profile is populated by one learning run and then enforced by the
// kernel of the same cell.
type Profile struct {
	tracked map[int64]struct{}
	edges   map[edge]struct{}
}

// edge is one (from, to) transition; from may be Start.
type edge struct {
	from, to int64
}

// NewProfile returns an empty profile tracking the given syscall
// numbers. Numbers outside the alphabet never advance the automaton.
func NewProfile(alphabet ...int64) *Profile {
	p := &Profile{
		tracked: make(map[int64]struct{}, len(alphabet)),
		edges:   make(map[edge]struct{}),
	}
	for _, nr := range alphabet {
		p.tracked[nr] = struct{}{}
	}
	return p
}

// Track adds nr to the profile's alphabet.
func (p *Profile) Track(nrs ...int64) {
	for _, nr := range nrs {
		p.tracked[nr] = struct{}{}
	}
}

// Tracks reports whether nr is in the alphabet.
func (p *Profile) Tracks(nr int64) bool {
	_, ok := p.tracked[nr]
	return ok
}

// Allow adds the (from, to) edge; both endpoints join the alphabet
// (except Start, which is a state, not a syscall).
func (p *Profile) Allow(from, to int64) {
	if from != Start {
		p.tracked[from] = struct{}{}
	}
	p.tracked[to] = struct{}{}
	p.edges[edge{from, to}] = struct{}{}
}

// AllowStart marks to as a legal first tracked syscall.
func (p *Profile) AllowStart(to int64) { p.Allow(Start, to) }

// Allowed reports whether the (from, to) transition is legal.
func (p *Profile) Allowed(from, to int64) bool {
	_, ok := p.edges[edge{from, to}]
	return ok
}

// Observe records the (from, to) transition as legal (learning mode).
func (p *Profile) Observe(from, to int64) {
	p.edges[edge{from, to}] = struct{}{}
}

// Edges returns the number of recorded transitions.
func (p *Profile) Edges() int { return len(p.edges) }

// Alphabet returns the tracked syscall numbers, sorted.
func (p *Profile) Alphabet() []int64 {
	out := make([]int64, 0, len(p.tracked))
	for nr := range p.tracked {
		out = append(out, nr)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
