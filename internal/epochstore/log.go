package epochstore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"github.com/wikistale/wikistale/internal/ingest"
)

// logName is the epoch log file; logMagic prefixes every record line.
const (
	logName  = "EPOCHS"
	logMagic = "WEL1"
)

// Record is one committed epoch in the EPOCHS log. The JSON lives on one
// log line behind a CRC-32 of its bytes, so a torn append is detected at
// the exact byte it tore.
type Record struct {
	// Seq is the epoch sequence number, strictly increasing across the log.
	Seq uint64 `json:"seq"`
	// File is the snapshot file name (relative to the store directory).
	File string `json:"file"`
	// Bytes and CRC32 pin the snapshot file's exact content.
	Bytes int64  `json:"bytes"`
	CRC32 uint32 `json:"crc32"`
	// Time is the commit wall time (RFC 3339).
	Time string `json:"time"`
	// Checkpoint is the feed position captured atomically with the
	// epoch's training snapshot: resuming the source here replays exactly
	// the events the epoch has not seen.
	Checkpoint ingest.SourcePosition `json:"checkpoint"`
	// Dictionary and corpus sizes at snapshot time — cheap cross-checks
	// before paying for a full decode, and the resume sanity numbers.
	Properties int `json:"properties"`
	Templates  int `json:"templates"`
	Pages      int `json:"pages"`
	Entities   int `json:"entities"`
	Changes    int `json:"changes"`
	Fields     int `json:"fields"`
}

// encodeRecord renders one log line: magic, CRC-32 of the JSON in fixed
// hex, the JSON, newline.
func encodeRecord(rec Record) ([]byte, error) {
	body, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	return []byte(fmt.Sprintf("%s %08x %s\n", logMagic, crc32.ChecksumIEEE(body), body)), nil
}

// decodeLog parses an EPOCHS payload into its valid prefix: records up to
// (not including) the first torn, corrupt, or out-of-order line, plus the
// byte length of that prefix. It never fails — damage just ends the
// prefix — which is exactly the recovery semantic: everything before the
// tear is trusted, everything after is dead weight to truncate.
func decodeLog(data []byte) (records []Record, validLen int64) {
	off := int64(0)
	var prevSeq uint64
	for int64(len(data)) > off {
		rest := data[off:]
		nl := bytes.IndexByte(rest, '\n')
		if nl < 0 {
			break // torn final line
		}
		line := rest[:nl]
		rec, ok := decodeRecordLine(line)
		if !ok || rec.Seq <= prevSeq {
			break
		}
		records = append(records, rec)
		prevSeq = rec.Seq
		off += int64(nl) + 1
	}
	return records, off
}

// decodeRecordLine parses one "WEL1 <crc32> <json>" line.
func decodeRecordLine(line []byte) (Record, bool) {
	// magic + space + 8 hex + space + at least "{}".
	if len(line) < len(logMagic)+1+8+1+2 {
		return Record{}, false
	}
	if string(line[:len(logMagic)]) != logMagic || line[len(logMagic)] != ' ' {
		return Record{}, false
	}
	var want uint32
	hex := line[len(logMagic)+1 : len(logMagic)+9]
	if _, err := fmt.Sscanf(string(hex), "%08x", &want); err != nil {
		return Record{}, false
	}
	if line[len(logMagic)+9] != ' ' {
		return Record{}, false
	}
	body := line[len(logMagic)+10:]
	if crc32.ChecksumIEEE(body) != want {
		return Record{}, false
	}
	var rec Record
	if err := json.Unmarshal(body, &rec); err != nil {
		return Record{}, false
	}
	if rec.File == "" || rec.File != filepath.Base(rec.File) {
		return Record{}, false // a path-escaping file name never loads
	}
	return rec, true
}

// openLog reads the EPOCHS log, keeps the valid prefix, and truncates any
// torn tail so the next append starts on a clean line boundary.
func (s *Store) openLog() error {
	path := filepath.Join(s.dir, logName)
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("epochstore: reading log: %w", err)
	}
	records, validLen := decodeLog(data)
	s.records = records
	if len(records) > 0 {
		s.nextSeq = records[len(records)-1].Seq + 1
	}
	if validLen < int64(len(data)) {
		if err := os.Truncate(path, validLen); err != nil {
			return fmt.Errorf("epochstore: truncating torn log tail: %w", err)
		}
	}
	return nil
}

// appendRecord encodes rec and appends it durably to the log. Caller
// holds the mutex.
func (s *Store) appendRecord(rec Record) error {
	line, err := encodeRecord(rec)
	if err != nil {
		return fmt.Errorf("epochstore: encoding record: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(s.dir, logName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("epochstore: log: %w", err)
	}
	if _, err := f.Write(line); err != nil {
		f.Close()
		return fmt.Errorf("epochstore: log append: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("epochstore: log sync: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("epochstore: log close: %w", err)
	}
	s.records = append(s.records, rec)
	return nil
}

// gcLocked applies retention after a commit: snapshot files of superseded
// records are removed (best effort), and once the log holds well more
// records than files it retains, it is compacted to the newest retain
// records via the same temp + fsync + rename protocol as a snapshot.
// Caller holds the mutex.
func (s *Store) gcLocked() {
	if drop := len(s.records) - s.retain; drop > 0 {
		for _, rec := range s.records[:drop] {
			if err := os.Remove(filepath.Join(s.dir, rec.File)); err == nil {
				s.gcRemoved.Inc()
			}
		}
	}
	if len(s.records) >= s.compactThreshold() {
		if err := s.compactLocked(); err != nil {
			// Non-fatal: the log keeps growing until the next attempt.
			s.logError("log compaction failed", err)
		}
	}
	s.logRecords.Set(float64(len(s.records)))
	s.retainedFiles.Set(float64(s.countFiles()))
}

// compactThreshold is the record count that triggers a log rewrite.
func (s *Store) compactThreshold() int {
	if t := 4 * s.retain; t > 8 {
		return t
	}
	return 8
}

// compactLocked rewrites the log with only the newest retain records.
// Caller holds the mutex.
func (s *Store) compactLocked() error {
	keep := s.records
	if len(keep) > s.retain {
		keep = keep[len(keep)-s.retain:]
	}
	var buf bytes.Buffer
	for _, rec := range keep {
		line, err := encodeRecord(rec)
		if err != nil {
			return err
		}
		buf.Write(line)
	}
	path := filepath.Join(s.dir, logName)
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(buf.Bytes()); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	if err := syncDir(s.dir); err != nil {
		return err
	}
	s.records = append([]Record(nil), keep...)
	return nil
}
