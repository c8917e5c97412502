package group

import "sync"

// This file implements the package-level preset cache used by the
// long-running paths (cmd/dmwd, dmw.NewGame, benchmarks). Preset
// validation runs ProbablyPrime on up-to-512-bit moduli and New builds
// the two fixed-base exponentiation tables, so a resident service that
// executes many jobs against the same published parameters should pay
// both costs exactly once.
//
// Preset (presets.go) deliberately keeps its return-a-fresh-copy
// semantics: callers (including tests) are allowed to mutate what it
// returns. ParamsFor and SharedFor instead hand out SHARED instances
// that callers must treat as read-only; every Group and Params method
// already never mutates its receiver's parameters, so the shared
// instances are safe for unbounded concurrent use.
//
// Construction runs OUTSIDE the map lock, under a per-entry once: the
// global mutex only guards map lookup/insert, so concurrent SharedFor
// calls for different presets build in parallel, concurrent calls for
// the same preset share one build, and a resetCache racing an in-flight
// build simply abandons that build's entry (the builder finishes into
// its own entry and returns a perfectly usable Group; the next caller
// after the reset builds a fresh one). TestSharedForConcurrentReset
// pins this under -race.

type paramsEntry struct {
	once sync.Once
	pr   *Params
	err  error
}

type groupEntry struct {
	once sync.Once
	g    *Group
	err  error
}

var (
	cacheMu      sync.Mutex
	presetParams map[string]*paramsEntry
	presetGroups map[string]*groupEntry
)

// ParamsFor returns the named preset's parameters from a package-level
// memo, validating them only on first use. The returned value is shared:
// callers must not mutate it. Use Preset for a private mutable copy.
func ParamsFor(preset string) (*Params, error) {
	cacheMu.Lock()
	e, ok := presetParams[preset]
	if !ok {
		if presetParams == nil {
			presetParams = make(map[string]*paramsEntry)
		}
		e = &paramsEntry{}
		presetParams[preset] = e
	}
	cacheMu.Unlock()
	e.once.Do(func() { e.pr, e.err = Preset(preset) })
	return e.pr, e.err
}

// SharedFor returns a memoized Group for the named preset, with the
// fixed-base tables built exactly once per process. The returned Group
// is shared and safe for concurrent use (WithCounter views alias the
// same tables); callers must not mutate its parameters.
func SharedFor(preset string) (*Group, error) {
	cacheMu.Lock()
	e, ok := presetGroups[preset]
	if !ok {
		if presetGroups == nil {
			presetGroups = make(map[string]*groupEntry)
		}
		e = &groupEntry{}
		presetGroups[preset] = e
	}
	cacheMu.Unlock()
	e.once.Do(func() {
		pr, err := ParamsFor(preset)
		if err != nil {
			e.err = err
			return
		}
		// New revalidates; the parameters came straight from Preset
		// (already validated), so the extra primality check runs once
		// per process per preset.
		e.g, e.err = New(pr)
	})
	return e.g, e.err
}

// MustSharedFor is like SharedFor but panics on error; preset constants
// are compile-time fixtures so failure indicates a corrupted build.
func MustSharedFor(preset string) *Group {
	g, err := SharedFor(preset)
	if err != nil {
		panic(err)
	}
	return g
}

// resetCache clears the memo; only tests use it. Builds in flight at
// the moment of the reset complete into their abandoned entries and
// stay correct — they are just no longer shared with later callers.
func resetCache() {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	presetParams = nil
	presetGroups = nil
}
