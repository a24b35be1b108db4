package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// envStamp records where and on what a run measured: host, CPUs,
// GOMAXPROCS, Go version, the code version, the seed and the input
// sizes.
func envStamp(sp spec, seed int64, seconds float64, traced bool, in inputStamp) map[string]any {
	host, err := os.Hostname()
	if err != nil {
		host = "unknown"
	}
	return map[string]any{
		"workload":      sp.name,
		"seed":          seed,
		"seconds":       seconds,
		"trace":         traced,
		"clients":       sp.clients,
		"host":          host,
		"goos":          runtime.GOOS,
		"goarch":        runtime.GOARCH,
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"commit":        commit(),
		"source_sha256": sourceHash("."),
		"inputs":        in,
		"setup_reps":    setupReps,
	}
}

// commit is the git revision of the working directory, or "unknown"
// when it is not the root of a git checkout (the source hash still
// identifies the code). Git is not asked to search parent directories,
// whose repository would name other code.
func commit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, "git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceHash is a SHA-256 over the paths and contents of every Go source
// and go.mod file under root, skipping hidden directories (build output,
// version control). It names the code a run measured when no commit id
// is available.
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, filepath.ToSlash(path)+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
