package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"mermaid/internal/machine"
	"mermaid/internal/ops"
	"mermaid/internal/stochastic"
)

// TestMain lets the test binary stand in for the command: with
// MERMAID_TEST_MAIN set it runs main on its own arguments.
func TestMain(m *testing.M) {
	if os.Getenv("MERMAID_TEST_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCLI runs the command with args in dir and returns its exit status,
// standard output and standard error.
func runCLI(t *testing.T, dir string, args ...string) (int, []byte, []byte) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "MERMAID_TEST_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	if exit, ok := err.(*exec.ExitError); ok {
		return exit.ExitCode(), stdout.Bytes(), stderr.Bytes()
	}
	if err != nil {
		t.Fatal(err)
	}
	return 0, stdout.Bytes(), stderr.Bytes()
}

// cliFixtures writes the documents the digest runs name into a fresh
// directory: a machine configuration, an instruction-level and a task-level
// description, a fault schedule, and the trace files each description
// generates (itr/ and ttr/, one per node).
func cliFixtures(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	cfg := machine.T805Grid(2, 2)
	cfg.Name = "cli-config"
	cfg.Seed = 5
	cfg.Version = machine.ConfigVersion
	cfgJSON, err := json.MarshalIndent(cfg, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	docs := map[string]string{
		"config.json": string(cfgJSON),
		"instr.json": `{"Nodes": 4, "Level": "instruction", "Seed": 7, "Iterations": 2,
			"Phases": [{"Name": "relax", "Instructions": 300, "CV": 0.2, "Comm": {"Pattern": "nearest", "Bytes": 256}}]}`,
		"task.json": `{"Nodes": 4, "Level": "task", "Seed": 11, "Iterations": 3,
			"Phases": [{"Name": "step", "Duration": 2000, "CV": 0.1, "Comm": {"Pattern": "exchange", "Bytes": 1024}}]}`,
		"faults.json": `{"links": [{"a": 0, "b": 1, "from": 1000, "to": 20000}],
			"noise": [{"a": -1, "b": -1, "drop": 0.01}], "retrans": {"timeout": 200, "backoff": 2, "maxRetries": 16}}`,
	}
	for name, doc := range docs {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for desc, out := range map[string]string{"instr.json": "itr", "task.json": "ttr"} {
		d, err := stochastic.ParseDesc([]byte(docs[desc]))
		if err != nil {
			t.Fatal(err)
		}
		traces, err := stochastic.Generate(d)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Mkdir(filepath.Join(dir, out), 0o755); err != nil {
			t.Fatal(err)
		}
		for i, tr := range traces {
			var buf bytes.Buffer
			if err := ops.WriteAll(&buf, tr); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, out, fmt.Sprintf("node%d.mmt", i)), buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	return dir
}

// cliDigests pins SHA-256 of what the command prints for each machine form
// (preset, config, topology) × workload form (app, desc, traces), with and
// without -faults, and of -dump-config for each machine: the exit status,
// standard output with its host wall-clock lines removed, then standard
// error. The task-level torus runs the task-level description and traces;
// every application is instruction-level, so -app on it pins the refusal.
// The six dump-config entries were re-printed once when Validate began
// writing the defaults back: they print the effective configuration. The
// eight runs under -faults were re-printed once when fault accounting
// (retransmits, lost packets, re-paths, drops, corruptions, downtime) joined
// the report.
var cliDigests = map[string]string{
	"config/app":                  "8ff9ae9a24899359be1e3da1be1c9dd7caac4200e97c2f46ed926c7da911526f",
	"config/app/faults":           "80aa7578abc69c2c71ed97b962fbaa4f813fd6c3a9faff95412bb45838544600",
	"config/desc":                 "63263fd177c6d21c937f80ada566a48f3733a130b6720c843089c43fb5c4cbe9",
	"config/desc/faults":          "73da1d08d347f06c6a57c20d1402c405cb8123a2020ed4aa3ad50e74b162c3db",
	"config/dump-config":          "4a0fa1acdfb824904edac5902187dadd1e7f58d8758540b8a65a8b147f356b6e",
	"config/dump-config/faults":   "c9a4c051d338f29ff53e603285a8be9e9daf5018c49fde5c8a6caed38822d91f",
	"config/traces":               "63263fd177c6d21c937f80ada566a48f3733a130b6720c843089c43fb5c4cbe9",
	"config/traces/faults":        "73da1d08d347f06c6a57c20d1402c405cb8123a2020ed4aa3ad50e74b162c3db",
	"preset/app":                  "50826763bff4c5b5705b5a9a9ab00608777722536d3af3dd3fba4de54d88c84e",
	"preset/app/faults":           "1960578dabd2167079b8fdde4ef043cb178c9390d90a67262841f32e5d74d687",
	"preset/desc":                 "adbd8537158637d8b3db860e38fc7a30e7723c2b0b6616c16ec9923d016bd260",
	"preset/desc/faults":          "6757eb2889b4c8f849574bed1a6c2114599f58228ef1ace794558f0b5468ad2b",
	"preset/dump-config":          "1ccb90ef5bfc777f483b51a1af1fef6b2524a1b3cd4d5d7c42909245c86cbd62",
	"preset/dump-config/faults":   "2d67225d1389747a517279131b0350b4f21b8bf028514248ac1094b7e3f07e40",
	"preset/traces":               "adbd8537158637d8b3db860e38fc7a30e7723c2b0b6616c16ec9923d016bd260",
	"preset/traces/faults":        "6757eb2889b4c8f849574bed1a6c2114599f58228ef1ace794558f0b5468ad2b",
	"topology/app":                "7405dc3bffe86aae5be375ad6e74f0f84d7abcfaae6d100cfca9b5b54ecebaf0",
	"topology/app/faults":         "7405dc3bffe86aae5be375ad6e74f0f84d7abcfaae6d100cfca9b5b54ecebaf0",
	"topology/desc":               "d78ca56f5f2cd46c287188a802aa87e18e62ea3505d25e33030b30729a2cf2ce",
	"topology/desc/faults":        "0756c4f109f76f4d98445379cf116d673cb9ab8f65cd85e0f955aabc1eae3776",
	"topology/dump-config":        "6cf69b64a3af92bd905afeacce95ed01d4da54c8f1d31717e8f86648b442ee16",
	"topology/dump-config/faults": "3021de0f2c28056cf97b4130482d18c8d0d9e4ec38a0e7879c37253c906acef3",
	"topology/traces":             "d78ca56f5f2cd46c287188a802aa87e18e62ea3505d25e33030b30729a2cf2ce",
	"topology/traces/faults":      "0756c4f109f76f4d98445379cf116d673cb9ab8f65cd85e0f955aabc1eae3776",
}

func TestCLIReportDigests(t *testing.T) {
	dir := cliFixtures(t)
	machines := map[string][]string{
		"preset":   {"-preset", "t805-2x2"},
		"config":   {"-config", "config.json"},
		"topology": {"-topology", "torus:2x2"},
	}
	traces := func(sub string) string {
		return sub + "/node0.mmt," + sub + "/node1.mmt," + sub + "/node2.mmt," + sub + "/node3.mmt"
	}
	for mname, mflags := range machines {
		desc, trs := "instr.json", traces("itr")
		if mname == "topology" {
			desc, trs = "task.json", traces("ttr")
		}
		workloads := map[string][]string{
			"app":         {"-app", "jacobi", "-iters", "2", "-cells", "32"},
			"desc":        {"-desc", desc},
			"traces":      {"-traces", trs},
			"dump-config": {"-dump-config"},
		}
		for wname, wflags := range workloads {
			for _, faults := range []bool{false, true} {
				key := mname + "/" + wname
				args := append(append([]string{}, mflags...), wflags...)
				if faults {
					key += "/faults"
					args = append(args, "-faults", "faults.json")
				}
				code, stdout, stderr := runCLI(t, dir, args...)
				h := sha256.New()
				fmt.Fprintf(h, "exit %d\n", code)
				h.Write(stripWallLines(stdout))
				h.Write([]byte("stderr:\n"))
				h.Write(stderr)
				if got, want := hex.EncodeToString(h.Sum(nil)), cliDigests[key]; got != want {
					t.Errorf("%q: %q, // pinned %q (exit %d, stderr %q)", key, got, want, code, stderr)
				}
			}
		}
	}
}

// stripWallLines drops the report lines that carry host time.
func stripWallLines(report []byte) []byte {
	var out []byte
	for _, line := range bytes.SplitAfter(report, []byte("\n")) {
		s := string(line)
		if strings.HasPrefix(s, "host wall time:") || strings.HasPrefix(s, "sim speed:") || strings.HasPrefix(s, "slowdown/proc:") {
			continue
		}
		out = append(out, line...)
	}
	return out
}
