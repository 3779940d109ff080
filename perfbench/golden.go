package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"sync"
)

// goldenSeed is the seed the committed golden digests were recorded with.
// The paper workload's digest holds for every seed (the seed only orders
// its work); whatif digests are checked on this seed alone.
const goldenSeed = 1

// goldenFile holds the committed output digests.
type goldenFile struct {
	Seed   int64             `json:"seed"`
	Paper  string            `json:"paper"`
	Whatif map[string]string `json:"whatif"` // request digest → response digest
}

// loadGolden reads the golden digests. A missing file is an error, except
// when the digests are about to be recorded.
func loadGolden(path string, recording bool) (*goldenFile, error) {
	g := &goldenFile{Seed: goldenSeed, Whatif: map[string]string{}}
	raw, err := os.ReadFile(path)
	if recording && errors.Is(err, fs.ErrNotExist) {
		return g, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(raw, g); err != nil {
		return nil, fmt.Errorf("golden digests %s: %w", path, err)
	}
	if g.Whatif == nil {
		g.Whatif = map[string]string{}
	}
	return g, nil
}

func (g *goldenFile) save(path string) error {
	raw, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// digest is a short content hash: the first 16 hex digits of SHA-256.
func digest(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// digestChecker compares each pass's output digest with the expected one:
// the golden digest when one applies, else the run's first pass.
type digestChecker struct {
	mu       sync.Mutex
	expected string
	golden   bool
}

func newDigestChecker(golden string) *digestChecker {
	return &digestChecker{expected: golden, golden: golden != ""}
}

// check returns a failure message, or "" when d is as expected.
func (c *digestChecker) check(what, d string) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.expected == "" {
		c.expected = d
		return ""
	}
	if d == c.expected {
		return ""
	}
	if c.golden {
		return fmt.Sprintf("%s digest %s, golden %s", what, d, c.expected)
	}
	return fmt.Sprintf("%s digest %s differs from the run's first pass %s", what, d, c.expected)
}
