package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"seal/internal/kernelgen"
)

// Timeouts bound every operation; one that runs out counts as failed.
const (
	stepTimeout    = 60 * time.Second
	requestTimeout = 30 * time.Second
	setupRounds    = 3
)

// env is one run's state: the corpus on disk, the reference outputs every
// later output must reproduce, and the failure ledger.
type env struct {
	seal   string // path of the built seal binary
	dir    string // the run's private work directory
	w      *Workload
	seed   int64
	corpus *kernelgen.Corpus

	tree, patches string
	files         []string // tree file names, sorted
	bugFuncs      map[string]bool

	// References, fixed by the first pass of the run.
	refSpecs  []byte // `seal infer` output
	refReport string // `seal detect` stdout
	specs     []map[string]json.RawMessage
	nSpecs    int
	// readMatches is how many reference specs each read query matches.
	readMatches []int

	attempted, failed int
	failures          []string
	peakRSSKB         int64
}

func newEnv(sealBin, workRoot string, w *Workload, seed int64) (*env, error) {
	dir, err := os.MkdirTemp(workRoot, fmt.Sprintf("%s-%d-", w.Name, seed))
	if err != nil {
		return nil, err
	}
	e := &env{seal: sealBin, dir: dir, w: w, seed: seed, corpus: w.Corpus(seed)}
	corpusDir := filepath.Join(dir, "corpus")
	e.tree = filepath.Join(corpusDir, "tree")
	e.patches = filepath.Join(corpusDir, "patches")
	e.files = e.corpus.SortedFileNames()
	if err = e.corpus.WriteTo(corpusDir); err == nil {
		e.bugFuncs, err = readGroundTruth(filepath.Join(corpusDir, "groundtruth.json"))
	}
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return e, nil
}

// readGroundTruth returns the functions holding a seeded bug, as the
// corpus's groundtruth.json lists them.
func readGroundTruth(path string) (map[string]bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var gt struct {
		Bugs []struct{ Func string } `json:"bugs"`
	}
	if err := json.Unmarshal(data, &gt); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(gt.Bugs) == 0 {
		return nil, fmt.Errorf("%s lists no seeded bugs", path)
	}
	funcs := make(map[string]bool, len(gt.Bugs))
	for _, b := range gt.Bugs {
		funcs[b.Func] = true
	}
	return funcs, nil
}

// fail records one failed operation against the attempted count.
func (e *env) fail(format string, args ...any) {
	e.failed++
	if len(e.failures) < 10 {
		e.failures = append(e.failures, fmt.Sprintf(format, args...))
	}
}

// runSeal runs one seal command to completion and returns its stdout and
// wall time. A non-zero exit or timeout counts as a failed operation.
func (e *env) runSeal(args ...string) (string, time.Duration, bool) {
	e.attempted++
	ctx, cancel := context.WithTimeout(context.Background(), stepTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, e.seal, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err := cmd.Run()
	wall := time.Since(start)
	e.noteRusage(cmd.ProcessState)
	if err != nil {
		e.fail("seal %s: %v: %s", args[0], err, strings.TrimSpace(stderr.String()))
		return "", wall, false
	}
	return stdout.String(), wall, true
}

func (e *env) noteRusage(ps *os.ProcessState) {
	if ps == nil {
		return
	}
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok && ru.Maxrss > e.peakRSSKB {
		e.peakRSSKB = ru.Maxrss
	}
}

// passTimes are the wall times of one batch pass's four commands.
type passTimes struct {
	infer, ingest, cold, warm time.Duration
	ok                        bool
}

// pass runs infer → specdb import → cold detect → warm detect in a fresh
// directory. The first pass fixes the reference specs and report; every
// later output must equal them byte for byte.
func (e *env) pass() passTimes {
	var pt passTimes
	dir := filepath.Join(e.dir, "pass")
	os.RemoveAll(dir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		e.attempted++
		e.fail("pass dir: %v", err)
		return pt
	}
	specsFile := filepath.Join(dir, "specs.json")
	store := filepath.Join(dir, "specs.db")
	ok := true
	check := func(what string, got, want []byte) {
		if !bytes.Equal(got, want) {
			ok = false
			e.fail("%s differs from the first pass's", what)
		}
	}

	_, inferWall, ok1 := e.runSeal("infer", "-patches", e.patches, "-out", specsFile, "-workers", "2")
	pt.infer = inferWall
	ok = ok && ok1
	specs, err := os.ReadFile(specsFile)
	if ok1 && err != nil {
		e.fail("read inferred specs: %v", err)
		ok = false
	}
	if e.refSpecs == nil && ok {
		if err := e.setSpecs(specs); err != nil {
			e.fail("parse inferred specs: %v", err)
			return pt
		}
	} else if ok1 {
		check("inferred spec database", specs, e.refSpecs)
	}

	out, ingest, ok2 := e.runSeal("specdb", "-db", store, "-import", specsFile)
	pt.ingest = ingest
	if want := fmt.Sprintf("imported %d specs into", e.nSpecs); ok2 && !strings.HasPrefix(out, want) {
		e.fail("specdb import printed %q, want prefix %q", strings.TrimSpace(out), want)
		ok2 = false
	}
	ok = ok && ok2

	detectArgs := []string{"detect", "-target", e.tree, "-workers", "2", "-cache-dir", filepath.Join(dir, "cache")}
	if e.w.StoreDetect {
		detectArgs = append(detectArgs, "-spec-db", store)
	} else {
		detectArgs = append(detectArgs, "-specs", specsFile)
	}
	cold, coldWall, ok3 := e.runSeal(detectArgs...)
	warm, warmWall, ok4 := e.runSeal(detectArgs...)
	pt.cold, pt.warm = coldWall, warmWall
	ok = ok && ok3 && ok4
	if e.refReport == "" && ok3 {
		if _, _, err := ParseReport(cold); err != nil {
			e.fail("reference report: %v", err)
			return pt
		}
		e.refReport = cold
	} else if ok3 {
		check("cold detect stdout", []byte(cold), []byte(e.refReport))
	}
	if ok4 {
		check("warm detect stdout", []byte(warm), []byte(e.refReport))
	}
	pt.ok = ok
	return pt
}

func (e *env) setSpecs(data []byte) error {
	var db struct {
		Specs []map[string]json.RawMessage `json:"specs"`
	}
	if err := json.Unmarshal(data, &db); err != nil {
		return err
	}
	if len(db.Specs) == 0 {
		return fmt.Errorf("no specs inferred")
	}
	e.readMatches = make([]int, len(readQueries))
	for _, sp := range db.Specs {
		var c struct {
			Forbidden bool `json:"forbidden"`
		}
		if err := json.Unmarshal(sp["constraint"], &c); err != nil {
			return fmt.Errorf("spec constraint: %w", err)
		}
		for i, forbidden := range readQueries {
			if c.Forbidden == forbidden {
				e.readMatches[i]++
			}
		}
	}
	e.refSpecs, e.specs, e.nSpecs = data, db.Specs, len(db.Specs)
	return nil
}

// daemon is a running `seal serve` and its one keep-alive client.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
}

// startDaemon imports the reference specs into a fresh store and serves
// the tree over it.
func (e *env) startDaemon() (*daemon, bool) {
	dir := filepath.Join(e.dir, "daemon")
	os.RemoveAll(dir)
	store := filepath.Join(dir, "specs.db")
	refFile := filepath.Join(dir, "ref-specs.json")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		e.attempted++
		e.fail("daemon dir: %v", err)
		return nil, false
	}
	if err := os.WriteFile(refFile, e.refSpecs, 0o644); err != nil {
		e.attempted++
		e.fail("write reference specs: %v", err)
		return nil, false
	}
	if _, _, ok := e.runSeal("specdb", "-db", store, "-import", refFile); !ok {
		return nil, false
	}
	e.attempted++
	logf, err := os.Create(filepath.Join(dir, "serve.log"))
	if err != nil {
		e.fail("serve log: %v", err)
		return nil, false
	}
	defer logf.Close()
	cmd := exec.Command(e.seal, "serve", "-target", e.tree, "-spec-db", store, "-workers", "2", "-addr", "127.0.0.1:0")
	cmd.Stderr = logf
	// The daemon must not outlive a benchmark that is killed mid-run.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		e.fail("serve: %v", err)
		return nil, false
	}
	if err := cmd.Start(); err != nil {
		e.fail("serve: %v", err)
		return nil, false
	}
	d := &daemon{cmd: cmd, client: &http.Client{Timeout: requestTimeout}}
	banner := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		if sc.Scan() {
			banner <- sc.Text()
		}
		close(banner)
		io.Copy(io.Discard, stdout)
	}()
	select {
	case line := <-banner:
		_, rest, ok := strings.Cut(line, "http://")
		addr, _, _ := strings.Cut(rest, " ")
		if !ok || addr == "" {
			e.fail("serve banner %q", line)
			e.stopDaemon(d)
			return nil, false
		}
		d.base = "http://" + addr
	case <-time.After(stepTimeout):
		e.fail("serve printed no banner")
		e.stopDaemon(d)
		return nil, false
	}
	for deadline := time.Now().Add(stepTimeout); ; time.Sleep(5 * time.Millisecond) {
		if st, _, err := d.do("GET", "/readyz", nil); err == nil && st == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			e.fail("serve never became ready")
			e.stopDaemon(d)
			return nil, false
		}
	}
	return d, true
}

// stopDaemon interrupts the daemon, waits for it to exit and records its
// peak RSS.
func (e *env) stopDaemon(d *daemon) {
	d.client.CloseIdleConnections()
	d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() { d.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		d.cmd.Process.Kill()
		<-done
	}
	e.noteRusage(d.cmd.ProcessState)
}

// do sends one request and reads the whole response.
func (d *daemon) do(method, path string, body any) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return 0, nil, err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, d.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// call is do for an operation step: anything but a 200 fails the step.
func (e *env) call(d *daemon, method, path string, body, out any) bool {
	st, data, err := d.do(method, path, body)
	if err != nil {
		e.fail("%s %s: %v", method, path, err)
		return false
	}
	if st != http.StatusOK {
		e.fail("%s %s: status %d: %s", method, path, st, bytes.TrimSpace(data))
		return false
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			e.fail("%s %s: %v", method, path, err)
			return false
		}
	}
	return true
}

// detect asks the daemon for a fresh report and checks it against the
// reference.
func (e *env) detect(d *daemon) bool {
	var resp struct {
		Report string `json:"report"`
	}
	if !e.call(d, "POST", "/detect", struct{}{}, &resp) {
		return false
	}
	if resp.Report != e.refReport {
		e.fail("daemon /detect report differs from the reference report")
		return false
	}
	return true
}

// runOp performs one burst operation, ending with a fresh report.
func (e *env) runOp(d *daemon, op Op, n int) bool {
	e.attempted++
	switch op.Kind {
	case OpSpecEdit:
		sp := make(map[string]json.RawMessage, len(e.specs[op.Target]))
		for k, v := range e.specs[op.Target] {
			sp[k] = v
		}
		var origin string
		json.Unmarshal(sp["originPatch"], &origin)
		sp["originPatch"], _ = json.Marshal(fmt.Sprintf("%s+edit%d", origin, n))
		var resp struct {
			Replaced int `json:"replaced"`
		}
		body := map[string]any{"upsert": map[string]any{"specs": []any{sp}}}
		if !e.call(d, "POST", "/specs", body, &resp) {
			return false
		}
		if resp.Replaced != 1 {
			e.fail("spec edit replaced %d specs, want 1", resp.Replaced)
			return false
		}
	case OpRead:
		var resp struct {
			Matched int `json:"matched"`
		}
		q := readQuery(readQueries[op.Target])
		if !e.call(d, "GET", "/specs?q="+url.QueryEscape(q), nil, &resp) {
			return false
		}
		if want := e.readMatches[op.Target]; resp.Matched != want {
			e.fail("spec query %s matched %d specs, want %d", q, resp.Matched, want)
			return false
		}
	case OpFileEdit:
		name := e.files[op.Target]
		src := e.corpus.Files[name] + fmt.Sprintf("/* sealbench edit %d */\n", n)
		body := map[string]any{"files": map[string]string{name: src}}
		if !e.call(d, "POST", "/edit", body, nil) {
			return false
		}
	}
	return e.detect(d)
}

// e2e is the measured outcome of an end-to-end run.
type e2e struct {
	setup                   Sample // s
	infer, ingest           Sample // ms per patch, specs per s
	cold, warm              Sample // s
	ops                     map[OpKind]Sample
	burstOps                int
	burstTime               time.Duration
	probe                   Sample
	acc                     Accuracy
	corpusDigest, opsDigest string
}

// runEndToEnd measures a workload through the built CLI: set-up rounds,
// then the timed closed loop of rounds until the deadline.
func (e *env) runEndToEnd(seconds int) (*e2e, error) {
	res := &e2e{ops: make(map[OpKind]Sample), corpusDigest: CorpusDigest(e.corpus)}
	var d *daemon
	// Every way out of the run stops the daemon and waits for it.
	defer func() {
		if d != nil {
			e.stopDaemon(d)
		}
	}()
	for i := 0; i < setupRounds; i++ {
		if d != nil {
			e.stopDaemon(d)
			d = nil
		}
		res.probe = append(res.probe, hostProbe())
		start := time.Now()
		if !e.pass().ok {
			return nil, fmt.Errorf("set-up pass failed: %s", strings.Join(e.failures, "; "))
		}
		var ok bool
		if d, ok = e.startDaemon(); !ok {
			return nil, fmt.Errorf("set-up daemon failed: %s", strings.Join(e.failures, "; "))
		}
		e.attempted++
		if !e.detect(d) {
			return nil, fmt.Errorf("set-up detect failed: %s", strings.Join(e.failures, "; "))
		}
		res.setup = append(res.setup, time.Since(start).Seconds())
	}
	lines, _, err := ParseReport(e.refReport)
	if err != nil {
		return nil, err
	}
	res.acc = Score(lines, e.bugFuncs)

	plan := e.w.Plan(e.seed, maxRounds, e.nSpecs, len(e.files))
	res.opsDigest = PlanDigest(plan)
	deadline := time.Now().Add(time.Duration(seconds) * time.Second)
	n := 0
	for r := 0; r < len(plan) && time.Now().Before(deadline); r++ {
		res.probe = append(res.probe, hostProbe())
		if pt := e.pass(); pt.ok {
			res.infer = append(res.infer, pt.infer.Seconds()*1000/float64(len(e.corpus.Patches)))
			res.ingest = append(res.ingest, float64(e.nSpecs)/pt.ingest.Seconds())
			res.cold = append(res.cold, pt.cold.Seconds())
			res.warm = append(res.warm, pt.warm.Seconds())
		}
		res.probe = append(res.probe, hostProbe())
		burstStart := time.Now()
		for _, op := range plan[r] {
			if !time.Now().Before(deadline) {
				break
			}
			n++
			start := time.Now()
			if e.runOp(d, op, n) {
				res.ops[op.Kind] = append(res.ops[op.Kind], float64(time.Since(start))/float64(time.Millisecond))
				res.burstOps++
			}
		}
		res.burstTime += time.Since(burstStart)
	}
	e.stopDaemon(d)
	d = nil
	return res, nil
}

// metrics returns the end-to-end metrics by name, timings and rates
// scaled to the reference host speed (see hostspeed.go).
func (r *e2e) metrics(peakRSSKB int64) map[string]float64 {
	scale := r.hostScale()
	return map[string]float64{
		"infer_ms_per_patch": r.infer.Median() * scale,
		"ingest_specs_per_s": r.ingest.Median() / scale,
		"cold_detect_s":      r.cold.Median() * scale,
		"warm_detect_s":      r.warm.Median() * scale,
		"precision":          r.acc.Precision(),
		"recall":             r.acc.Recall(),
		"spec_edit_p50_ms":   r.ops[OpSpecEdit].Median() * scale,
		"file_edit_p50_ms":   r.ops[OpFileEdit].Median() * scale,
		"read_p50_ms":        r.ops[OpRead].Median() * scale,
		"serve_ops_per_s":    float64(r.burstOps) / r.burstTime.Seconds() / scale,
		"peak_rss_mb":        float64(peakRSSKB) / 1024,
		"setup_s":            r.setup.Median() * scale,
	}
}

// hostScale is the factor that turns this run's times into reference-host
// times.
func (r *e2e) hostScale() float64 { return probeRefMs / r.probe.Mean() }

// describe prints every end-to-end figure with its unit and sample count.
func (r *e2e) describe(w io.Writer, e *env) {
	c := e.corpus
	lines := 0
	for _, src := range c.Files {
		lines += strings.Count(src, "\n")
	}
	fmt.Fprintf(w, "workload %s seed %d: %d files, %d lines, %d patches, %d specs, %d seeded bugs\n",
		e.w.Name, e.seed, len(c.Files), lines, len(c.Patches), e.nSpecs, len(c.Bugs))
	fmt.Fprintf(w, "corpus digest %s, op-sequence digest %s\n", r.corpusDigest, r.opsDigest)
	fmt.Fprintf(w, "host probe: mean %.3f ms (n=%d); the result line scales timings by %.4f and rates by its inverse, the figures below are raw\n",
		r.probe.Mean(), len(r.probe), r.hostScale())
	fmt.Fprintf(w, "setup_s: %s\n", r.setup.Summary("s"))
	fmt.Fprintf(w, "infer_ms_per_patch: %s\n", r.infer.Summary("ms"))
	fmt.Fprintf(w, "ingest_specs_per_s: %s\n", r.ingest.Summary("1/s"))
	fmt.Fprintf(w, "cold_detect_s: %s\n", r.cold.Summary("s"))
	fmt.Fprintf(w, "warm_detect_s: %s\n", r.warm.Summary("s"))
	// The p90 round trips stay out of the result line: only a run with 100
	// samples of a kind has ten beyond its p90.
	for _, k := range opKinds {
		s, name := r.ops[k], strings.ReplaceAll(string(k), "-", "_")
		fmt.Fprintf(w, "%s round trip: %s\n", name, s.Summary("ms"))
		if TailPercentile(len(s)) >= 90 {
			fmt.Fprintf(w, "%s_p90_ms: %.3f ms (n=%d)\n", name, s.Quantile(0.9), len(s))
		} else {
			fmt.Fprintf(w, "%s_p90_ms: not reported, n=%d leaves fewer than 10 samples beyond p90\n", name, len(s))
		}
	}
	fmt.Fprintf(w, "serve_ops_per_s: %.2f (%d ops in %.2fs of bursts, 1 client, closed loop)\n",
		float64(r.burstOps)/r.burstTime.Seconds(), r.burstOps, r.burstTime.Seconds())
	fmt.Fprintf(w, "precision: %.4f (%d of %d reports), recall: %.4f (%d of %d seeded bugs)\n",
		r.acc.Precision(), r.acc.TruePositives, r.acc.Reports, r.acc.Recall(), r.acc.Found, r.acc.Bugs)
	fmt.Fprintf(w, "peak_rss_mb: %.1f (max over seal processes)\n", float64(e.peakRSSKB)/1024)
	fmt.Fprintf(w, "ops: %d failed of %d attempted\n", e.failed, e.attempted)
}
