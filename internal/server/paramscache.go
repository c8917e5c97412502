package server

import (
	"os"
	"path/filepath"

	"dmw/internal/group"
)

// loadParamsCache attempts the warm-boot path: load precomputed tables
// from the artifact at path and use them iff they were built for
// exactly the configured parameters. Every failure mode — missing
// file, corruption, version mismatch, wrong parameters — logs loudly
// and returns (nil, false) so the caller rebuilds from parameters; a
// quiet wrong answer is never an option here.
func loadParamsCache(path string, want *group.Params, logf func(string, ...any)) (*group.Group, bool) {
	f, err := os.Open(path)
	if err != nil {
		logf("params-cache: %v; building tables from parameters", err)
		return nil, false
	}
	defer f.Close()
	g, err := group.LoadTables(f)
	if err != nil {
		logf("params-cache: %s unusable (%v); building tables from parameters", path, err)
		return nil, false
	}
	if !g.Params().Equal(want) {
		logf("params-cache: %s was built for different parameters; building tables from configured parameters", path)
		return nil, false
	}
	logf("params-cache: loaded precomputed tables from %s in %s", path, g.TableBuildTime())
	return g, true
}

// saveParamsCache writes grp's tables to path (atomically, via a
// same-directory temp file) so the NEXT boot takes the warm path.
// Best-effort: failure is logged, not fatal.
func saveParamsCache(path string, grp *group.Group, logf func(string, ...any)) {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".params-cache-*")
	if err != nil {
		logf("params-cache: not writing %s: %v", path, err)
		return
	}
	defer os.Remove(tmp.Name())
	if err := group.SaveTables(tmp, grp); err == nil {
		err = tmp.Sync()
	} else {
		logf("params-cache: serializing tables: %v", err)
		tmp.Close()
		return
	}
	if cerr := tmp.Close(); cerr != nil {
		logf("params-cache: writing %s: %v", path, cerr)
		return
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		logf("params-cache: installing %s: %v", path, err)
		return
	}
	logf("params-cache: wrote precomputed tables to %s (table build took %s)", path, grp.TableBuildTime())
}
