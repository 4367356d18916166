// Package policy is the schemafreeze fixture: frozen structs in every
// state — matching the baseline, drifted from it, grown only by fields that
// keep old documents' bytes, and never registered — plus an unfrozen struct
// the pass must ignore.
package policy

// Frozen matches the committed fixture baseline exactly: clean.
//
//itslint:frozen
type Frozen struct {
	Name string `json:"name"`
	Val  uint64 `json:"val"`
}

// Drifted gained two fields without regenerating the baseline — the
// accident the gate exists for. Neither is omitempty, so the report also
// names them as byte-layout breaks.
//
//itslint:frozen
type Drifted struct { // want `frozen struct itsim/internal/policy\.Drifted drifted from the committed baseline: .*; new fields Extra, Untagged lack .*omitempty.* and would change the byte layout of every summary`
	Name     string `json:"name"`
	Extra    int    `json:"extra"`
	Untagged bool
}

// Grown gained only fields absent from default output (omitempty, "-",
// unexported): still drift until the baseline is regenerated, but no
// byte-layout note.
//
//itslint:frozen
type Grown struct { // want `frozen struct itsim/internal/policy\.Grown drifted from the committed baseline: have \[[^]]*\], baseline \[[^]]*\]; if the schema change is intended`
	Name    string `json:"name"`
	Opt     uint64 `json:"opt,omitempty"`
	Skipped int    `json:"-"`
	hidden  int
}

// Unregistered is frozen but absent from the baseline: freezing a struct
// and committing its layout are one reviewed change.
//
//itslint:frozen
type Unregistered struct { // want `frozen struct itsim/internal/policy\.Unregistered is not in the frozen-schema baseline`
	X int `json:"x"`
}

// Free is not frozen: it may change shape at will.
type Free struct {
	Whatever int `json:"whatever"`
}
