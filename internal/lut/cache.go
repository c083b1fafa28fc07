package lut

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/server"
)

// DiskCache caches built tables as JSON files keyed by a hash of the
// (server configuration, build grid) pair, so repeated processes — rack
// experiments rebuilding one LUT per distinct ambient, genlut invocations,
// benchmark reruns — pay for each distinct steady-state grid exactly once
// per machine instead of once per process.
//
// The zero value (empty Dir) disables caching and builds directly. Cache
// files are self-validating: they are parsed with ReadJSON on every hit
// and silently rebuilt when missing, corrupt or unreadable, so a cache
// directory can always be deleted (or trimmed) wholesale.
type DiskCache struct {
	Dir string
}

// CacheKey returns the stable content hash identifying a build: the server
// configuration with its sensor NoiseSeed zeroed (noise cannot affect
// steady-state equilibria, cf. BuildPerConfig) combined with the build
// grid, with the Workers bound zeroed too (the determinism contract makes
// the built table identical for every worker count). Two builds share a
// cache entry exactly when this key matches.
func CacheKey(cfg server.Config, b BuildConfig) string {
	k := cfg
	k.NoiseSeed = 0
	b.Workers = 0
	// %#v over the flat value structs is a stable, unambiguous rendering:
	// field names disambiguate layout changes, and shortest-form float
	// formatting is deterministic.
	sum := sha256.Sum256([]byte(fmt.Sprintf("%#v|%#v", k, b)))
	return hex.EncodeToString(sum[:12])
}

// path returns the cache file for a key.
func (c DiskCache) path(key string) string {
	return filepath.Join(c.Dir, "lut-"+key+".json")
}

// Build is lut.Build behind the disk cache: a valid cache file for the
// configuration's key is returned without any steady-state solves; a miss
// builds, then writes the table back atomically (temp file + rename) so
// concurrent processes can share one directory without torn reads.
func (c DiskCache) Build(cfg server.Config, b BuildConfig) (*Table, error) {
	if c.Dir == "" {
		return Build(cfg, b)
	}
	path := c.path(CacheKey(cfg, b))
	if f, err := os.Open(path); err == nil {
		t, rerr := ReadJSON(f)
		f.Close()
		if rerr == nil {
			return t, nil
		}
		// Corrupt entry: fall through and rebuild it.
	}
	t, err := Build(cfg, b)
	if err != nil {
		return nil, err
	}
	if err := c.write(path, t); err != nil {
		return nil, fmt.Errorf("lut: cache write %s: %w", path, err)
	}
	return t, nil
}

// write persists a table atomically under path.
func (c DiskCache) write(path string, t *Table) error {
	if err := os.MkdirAll(c.Dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(c.Dir, ".lut-*.tmp")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := t.WriteJSON(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// BuildPerConfig builds one table per server configuration — the rack
// case: slot i's table serves both its fan controller and the
// leakage-aware placement policy. Configurations whose steady-state
// physics are identical share a single build (the sensor NoiseSeed is
// ignored: noise cannot affect equilibria), and each distinct build
// consults the cache directory first.
func (c DiskCache) BuildPerConfig(cfgs []server.Config, b BuildConfig) ([]*Table, error) {
	tables := make([]*Table, len(cfgs))
	cache := map[server.Config]*Table{}
	for i, cfg := range cfgs {
		key := cfg
		key.NoiseSeed = 0
		t, ok := cache[key]
		if !ok {
			var err error
			t, err = c.Build(cfg, b)
			if err != nil {
				return nil, fmt.Errorf("lut: build for config %d: %w", i, err)
			}
			cache[key] = t
		}
		tables[i] = t
	}
	return tables, nil
}
