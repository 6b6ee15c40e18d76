package pipeline

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"

	"mermaid/internal/stats"
)

// manifestVersion is bumped when the manifest layout changes incompatibly.
const manifestVersion = 1

// manifestFile is the manifest's filename inside an artifact directory.
const manifestFile = "manifest.json"

// RunRecord is one recorded experiment execution in the manifest.
type RunRecord struct {
	// Experiment is the registry name.
	Experiment string `json:"experiment"`
	// Point is the design point (sweep overrides); empty at defaults.
	Point Point `json:"point,omitempty"`
	// Group identifies the (experiment, point) the run belongs to — the
	// unit summaries and diffs aggregate over. Replicas of one point share
	// a group.
	Group string `json:"group"`
	// Replica is the 0-based replica number within the group.
	Replica int `json:"replica"`
	// Deterministic echoes the experiment's registry flag: these runs (and
	// their files) are byte-identical across hosts and worker counts.
	Deterministic bool `json:"deterministic"`
	// Files are the run's artifact paths, relative to the run directory.
	Files []string `json:"files"`
	// Keys are the run's key metrics.
	Keys map[string]float64 `json:"keys"`
	// WallMs is host wall time in milliseconds (informational; never
	// compared).
	WallMs float64 `json:"wall_ms"`
}

// Manifest records everything needed to audit, re-validate and diff a
// pipeline run: the grid, the code version, every run's outcome, the CSV
// schemas, and a content hash per artifact file.
type Manifest struct {
	Version int    `json:"version"`
	Name    string `json:"name"`
	// CreatedAt and GoVersion describe the host context (informational).
	CreatedAt string `json:"created_at"`
	GoVersion string `json:"go_version"`
	// GitCommit is the commit the pipeline binary was built from, for
	// cross-commit diffs.
	GitCommit string `json:"git_commit"`
	// Grid is the specification the run executed.
	Grid *GridSpec `json:"grid"`
	// Runs are the recorded executions, in submission order.
	Runs []RunRecord `json:"runs"`
	// Schemas maps each CSV path (relative) to its column schema, used by
	// Validate to reject corrupted artifacts with a named column.
	Schemas map[string]stats.Schema `json:"schemas"`
	// Files maps every artifact path (relative) to its SHA-256 hex digest.
	// For deterministic experiments these digests are host- and
	// parallelism-independent.
	Files map[string]string `json:"files"`
}

// writeJSON writes the manifest as deterministic indented JSON (object keys
// sort; map fields are host-stable given equal content).
func (m *Manifest) writeJSON(w io.Writer) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// readManifest loads the manifest of an artifact directory.
func readManifest(dir string) (*Manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestFile))
	if err != nil {
		return nil, fmt.Errorf("pipeline: reading manifest: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("pipeline: parsing %s: %w", filepath.Join(dir, manifestFile), err)
	}
	if m.Version != manifestVersion {
		return nil, fmt.Errorf("pipeline: %s: manifest version %d, this build reads %d", dir, m.Version, manifestVersion)
	}
	return &m, nil
}

// hashFile returns the SHA-256 hex digest of a file.
func hashFile(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return fmt.Sprintf("%x", h.Sum(nil)), nil
}

// artifactDirs are the subdirectories whose contents the manifest hashes.
var artifactDirs = []string{"csv", "logs", "analysis"}

// listArtifacts walks the artifact subdirectories and returns every file
// path relative to dir (slash-separated, sorted).
func listArtifacts(dir string) ([]string, error) {
	var files []string
	for _, sub := range artifactDirs {
		root := filepath.Join(dir, sub)
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				return nil
			}
			rel, err := filepath.Rel(dir, path)
			if err != nil {
				return err
			}
			files = append(files, filepath.ToSlash(rel))
			return nil
		})
		if err != nil {
			if os.IsNotExist(err) {
				continue
			}
			return nil, err
		}
	}
	sort.Strings(files)
	return files, nil
}

// Validate re-checks an artifact directory against its manifest: every CSV
// must satisfy its recorded schema (a corrupted cell is reported with its
// row and column name), every file must match its recorded content hash,
// and no unrecorded files may appear in the artifact subdirectories.
func Validate(dir string) error {
	m, err := readManifest(dir)
	if err != nil {
		return err
	}
	// Schema validation first: a corrupted CSV should be reported as the
	// named-column error, not as an opaque hash mismatch.
	csvPaths := make([]string, 0, len(m.Schemas))
	for p := range m.Schemas {
		csvPaths = append(csvPaths, p)
	}
	sort.Strings(csvPaths)
	for _, p := range csvPaths {
		f, err := os.Open(filepath.Join(dir, p))
		if err != nil {
			return fmt.Errorf("pipeline: %s: %w", p, err)
		}
		err = stats.ValidateCSV(f, m.Schemas[p])
		f.Close()
		if err != nil {
			return fmt.Errorf("pipeline: %s: %w", p, err)
		}
	}
	// Hash verification.
	hashed := make([]string, 0, len(m.Files))
	for p := range m.Files {
		hashed = append(hashed, p)
	}
	sort.Strings(hashed)
	for _, p := range hashed {
		got, err := hashFile(filepath.Join(dir, p))
		if err != nil {
			return fmt.Errorf("pipeline: %s: %w", p, err)
		}
		if got != m.Files[p] {
			return fmt.Errorf("pipeline: %s: content hash %s does not match manifest %s", p, got[:12], m.Files[p][:12])
		}
	}
	// No stray files.
	onDisk, err := listArtifacts(dir)
	if err != nil {
		return err
	}
	for _, p := range onDisk {
		if _, ok := m.Files[p]; !ok {
			return fmt.Errorf("pipeline: %s exists but is not in the manifest", p)
		}
	}
	return nil
}
