package operator

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// ErrNoSuchFlight is returned when loading an unknown flight record.
var ErrNoSuchFlight = errors.New("operator: no such flight record")

// FlightRecord is one persisted Proof-of-Alibi: the paper's Adapter
// "persists the ciphertext along with the signature in the local storage"
// during flight and submits after landing.
type FlightRecord struct {
	FlightID     string    `json:"flightId"`
	DroneID      string    `json:"droneId"`
	Start        time.Time `json:"start"`
	End          time.Time `json:"end"`
	EncryptedPoA []byte    `json:"encryptedPoA"`
	Submitted    bool      `json:"submitted"`
}

// Store persists flight records as one JSON file per flight under a
// directory. Safe for concurrent use within one process.
type Store struct {
	dir string
	mu  sync.Mutex
}

// NewStore opens (creating if needed) a flight-record directory.
func NewStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("open store: %w", err)
	}
	return &Store{dir: dir}, nil
}

func (s *Store) path(flightID string) string {
	return filepath.Join(s.dir, flightID+".json")
}

// Save writes or overwrites a flight record.
func (s *Store) Save(rec FlightRecord) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return fmt.Errorf("marshal flight record: %w", err)
	}
	tmp := s.path(rec.FlightID) + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("write flight record: %w", err)
	}
	if err := os.Rename(tmp, s.path(rec.FlightID)); err != nil {
		return fmt.Errorf("commit flight record: %w", err)
	}
	return nil
}

// Load reads one flight record.
func (s *Store) Load(flightID string) (FlightRecord, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, err := os.ReadFile(s.path(flightID))
	if errors.Is(err, os.ErrNotExist) {
		return FlightRecord{}, fmt.Errorf("%w: %q", ErrNoSuchFlight, flightID)
	}
	if err != nil {
		return FlightRecord{}, fmt.Errorf("read flight record: %w", err)
	}
	var rec FlightRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return FlightRecord{}, fmt.Errorf("decode flight record: %w", err)
	}
	return rec, nil
}
