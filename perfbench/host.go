package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// host is the provenance block every result carries. Timings taken on
// different hosts are not comparable, so compare refuses to mix them.
type host struct {
	GitRev string `json:"git_rev"`
	// SourceDigest identifies the measured source when the checkout is
	// not a git repository: a SHA-256 over every .go and go.mod file.
	SourceDigest string `json:"source_digest"`
	Go           string `json:"go"`
	CPUs         int    `json:"cpus"`
	CPUModel     string `json:"cpu_model"`
}

func currentHost(root string) host {
	h := host{GitRev: gitRev(root), SourceDigest: sourceDigest(root), Go: runtime.Version(), CPUs: runtime.NumCPU(), CPUModel: "unknown"}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// gitRev reads the checked-out commit from root/.git without running
// git, which would search the directories above the checkout and read
// the user's configuration. "unknown" outside a git checkout.
func gitRev(root string) string {
	dir := filepath.Join(root, ".git")
	head, err := os.ReadFile(filepath.Join(dir, "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, symbolic := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !symbolic {
		return ref // detached HEAD holds the commit itself
	}
	if b, err := os.ReadFile(filepath.Join(dir, filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, _ := os.ReadFile(filepath.Join(dir, "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}

// sourceDigest hashes the Go sources under root in path order, skipping
// hidden directories (build output, VCS metadata).
func sourceDigest(root string) string {
	sum := sha256.New()
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(sum, "%s\x00", filepath.ToSlash(p))
		io.Copy(sum, f)
		f.Close()
	}
	return hex.EncodeToString(sum.Sum(nil))[:16]
}

// record is one run as written by -out.
type record struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    int     `json:"trace"`
	Host     host    `json:"host"`
	Result   result  `json:"result"`
}

// sameMachine reports whether two hosts' timings may be compared.
func sameMachine(a, b host) bool {
	return a.CPUs == b.CPUs && a.CPUModel == b.CPUModel && a.Go == b.Go
}

// compareMain prints per-metric medians of a base and a head set of
// -out records of one workload, and refuses records from different
// hosts (CPU count, CPU model or Go version differ).
func compareMain(args []string) int {
	fl := flag.NewFlagSet("compare", flag.ContinueOnError)
	base := fl.String("base", "", "comma-separated -out files of the base commit")
	head := fl.String("head", "", "comma-separated -out files of the head commit")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	load := func(list string) ([]record, error) {
		var recs []record
		for _, p := range strings.Split(list, ",") {
			raw, err := os.ReadFile(p)
			if err != nil {
				return nil, err
			}
			var r record
			if err := json.Unmarshal(raw, &r); err != nil {
				return nil, fmt.Errorf("%s: %w", p, err)
			}
			recs = append(recs, r)
		}
		return recs, nil
	}
	bs, err := load(*base)
	var hs []record
	if err == nil && *head != "" {
		hs, err = load(*head)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 2
	}
	return printComparison(bs, hs)
}

func printComparison(base, head []record) int {
	all := append(append([]record(nil), base...), head...)
	if len(all) == 0 {
		fmt.Fprintln(os.Stderr, "perfbench compare: no records")
		return 2
	}
	for _, r := range all[1:] {
		if !sameMachine(all[0].Host, r.Host) {
			fmt.Fprintf(os.Stderr, "perfbench compare: refusing to compare results from different hosts:\n  %+v\n  %+v\n", all[0].Host, r.Host)
			return 1
		}
		if r.Workload != all[0].Workload || r.Trace != all[0].Trace {
			fmt.Fprintf(os.Stderr, "perfbench compare: records mix workloads or trace modes (%s/%d vs %s/%d)\n",
				all[0].Workload, all[0].Trace, r.Workload, r.Trace)
			return 1
		}
	}
	defs := endToEndMetrics
	if all[0].Trace == 1 {
		defs = layerMetrics
	}
	med := func(recs []record, name string) float64 {
		var xs []float64
		for _, r := range recs {
			xs = append(xs, r.Result.Metrics[name].Value)
		}
		return median(xs)
	}
	fmt.Printf("%s: %d base and %d head runs on %s (%d cpus, %s)\n",
		all[0].Workload, len(base), len(head), all[0].Host.CPUModel, all[0].Host.CPUs, all[0].Host.Go)
	for _, d := range defs {
		b := med(base, d.Name)
		if len(head) == 0 {
			fmt.Printf("  %-34s %14.6g %s\n", d.Name, b, d.Unit)
			continue
		}
		h := med(head, d.Name)
		fmt.Printf("  %-34s %14.6g -> %14.6g %-6s %+7.2f%%\n", d.Name, b, h, d.Unit, 100*ratio(h-b, b))
	}
	return 0
}
