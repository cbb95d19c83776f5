package store

import (
	"crypto/cipher"
	"crypto/rand"
	"encoding/base64"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"syscall"

	"f2/internal/core"
	"f2/internal/crypt"
)

// keySealVersion is the first byte of a sealed dataset key: the version
// of the layout version‖nonce‖AES-GCM seal that follows it.
const keySealVersion = 1

// configFile mirrors core.Config minus the key.
type configFile struct {
	Alpha                  float64 `json:"alpha"`
	SplitFactor            int     `json:"splitFactor"`
	PRF                    int     `json:"prf"`
	MinInstanceFreq        int     `json:"minInstanceFreq"`
	NaiveSplitPoint        bool    `json:"naiveSplitPoint,omitempty"`
	SkipFPElimination      bool    `json:"skipFPElimination,omitempty"`
	SkipConflictResolution bool    `json:"skipConflictResolution,omitempty"`
	// Parallelism is a pure throughput knob (the ciphertext is identical
	// at every setting), but it round-trips so a restored dataset keeps
	// the width it was created with. Absent in old snapshots → 0 →
	// GOMAXPROCS.
	Parallelism int `json:"parallelism,omitempty"`
}

func configToFile(cfg core.Config) configFile {
	return configFile{
		Alpha:                  cfg.Alpha,
		SplitFactor:            cfg.SplitFactor,
		PRF:                    int(cfg.PRF),
		MinInstanceFreq:        cfg.MinInstanceFreq,
		NaiveSplitPoint:        cfg.NaiveSplitPoint,
		SkipFPElimination:      cfg.SkipFPElimination,
		SkipConflictResolution: cfg.SkipConflictResolution,
		Parallelism:            cfg.Parallelism,
	}
}

func (c configFile) config(key crypt.Key) core.Config {
	return core.Config{
		Alpha:                  c.Alpha,
		SplitFactor:            c.SplitFactor,
		Key:                    key,
		PRF:                    crypt.PRF(c.PRF),
		MinInstanceFreq:        c.MinInstanceFreq,
		NaiveSplitPoint:        c.NaiveSplitPoint,
		SkipFPElimination:      c.SkipFPElimination,
		SkipConflictResolution: c.SkipConflictResolution,
		Parallelism:            c.Parallelism,
	}
}

// sealKey encrypts a dataset key under the master AEAD for storage, as
// base64(version‖nonce‖seal). The dataset id is the associated data, so
// a sealed key copied into another dataset's index fails to open.
func sealKey(master cipher.AEAD, id string, key crypt.Key) (string, error) {
	out := make([]byte, 1+master.NonceSize(), 1+master.NonceSize()+len(key)+master.Overhead())
	out[0] = keySealVersion
	if _, err := rand.Read(out[1:]); err != nil {
		return "", fmt.Errorf("store: sealing dataset key: %w", err)
	}
	out = master.Seal(out, out[1:], key[:], []byte(id))
	return base64.StdEncoding.EncodeToString(out), nil
}

// openKey inverts sealKey. Any tag failure — a wrong master key, a
// flipped bit, a key sealed for another dataset — is an error, never a
// garbage key.
func openKey(master cipher.AEAD, id, sealed string) (crypt.Key, error) {
	raw, err := base64.StdEncoding.DecodeString(sealed)
	if err != nil {
		return crypt.Key{}, fmt.Errorf("store: unsealing dataset key: %w", err)
	}
	if len(raw) == 0 || raw[0] != keySealVersion {
		return crypt.Key{}, errors.New("store: unsealing dataset key: unknown seal version")
	}
	n := 1 + master.NonceSize()
	if len(raw) < n {
		return crypt.Key{}, errors.New("store: unsealing dataset key: sealed key truncated")
	}
	plain, err := master.Open(nil, raw[1:n], raw[n:], []byte(id))
	if err != nil {
		return crypt.Key{}, errors.New("store: dataset key fails authentication (wrong master key, tampered, or sealed for another dataset)")
	}
	var key crypt.Key
	if len(plain) != len(key) {
		return crypt.Key{}, fmt.Errorf("store: unsealed dataset key is %d bytes, want %d", len(plain), len(key))
	}
	copy(key[:], plain)
	return key, nil
}

// writeFileAtomic writes data to path via a temp file in the same
// directory, fsyncs it, and renames it into place, so readers — including
// recovery after a crash mid-write — see either the old file or the new
// one, never a torn mix.
func writeFileAtomic(path string, data []byte, perm os.FileMode) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmpPath := tmp.Name()
	cleanup := func() {
		// Best-effort teardown of a write that already failed: the close
		// error cannot carry anything the caller isn't already returning.
		_ = tmp.Close()
		os.Remove(tmpPath)
	}
	if _, err := tmp.Write(data); err != nil {
		cleanup()
		return err
	}
	if err := tmp.Chmod(perm); err != nil {
		cleanup()
		return err
	}
	if err := tmp.Sync(); err != nil {
		cleanup()
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpPath)
		return err
	}
	if err := os.Rename(tmpPath, path); err != nil {
		os.Remove(tmpPath)
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a just-renamed file's directory entry is
// durable. Only "this filesystem doesn't support directory fsync" errnos
// are tolerated; a real I/O failure (EIO, ENOSPC, ...) here means the
// rename may not be durable and must surface to the caller.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !unsupportedSync(err) {
		return fmt.Errorf("store: syncing directory %s: %w", dir, err)
	}
	return nil
}

// unsupportedSync reports whether err is the errno class meaning the
// filesystem rejects directory fsync outright (not that it failed).
func unsupportedSync(err error) bool {
	return errors.Is(err, syscall.EINVAL) ||
		errors.Is(err, syscall.ENOTSUP) ||
		errors.Is(err, syscall.ENOTTY) ||
		errors.Is(err, syscall.EOPNOTSUPP)
}
