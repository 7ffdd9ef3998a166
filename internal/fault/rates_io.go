package fault

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// MarshalRates serializes rates as JSON (all fields in FIT per die).
func MarshalRates(r Rates) ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// ReadRates parses JSON rates. Missing fields default to zero; a zero
// SubArrayRows falls back to the paper's 5200.
func ReadRates(rd io.Reader) (Rates, error) {
	var r Rates
	dec := json.NewDecoder(rd)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		return Rates{}, fmt.Errorf("fault: parsing rates: %w", err)
	}
	if r.SubArrayRows == 0 {
		r.SubArrayRows = 5200
	}
	if err := r.Validate(); err != nil {
		return Rates{}, err
	}
	return r, nil
}

// LoadRates reads rates from a JSON file.
func LoadRates(path string) (Rates, error) {
	f, err := os.Open(path)
	if err != nil {
		return Rates{}, err
	}
	defer f.Close()
	return ReadRates(f)
}

// Validate rejects impossible rates: a negative or NaN FIT rate, a
// SubArrayFraction outside [0,1], or a negative SubArrayRows.
func (r Rates) Validate() error {
	fields := map[string]float64{
		"BitTransient": r.BitTransient, "BitPermanent": r.BitPermanent,
		"WordTransient": r.WordTransient, "WordPermanent": r.WordPermanent,
		"ColumnTransient": r.ColumnTransient, "ColumnPermanent": r.ColumnPermanent,
		"RowTransient": r.RowTransient, "RowPermanent": r.RowPermanent,
		"BankTransient": r.BankTransient, "BankPermanent": r.BankPermanent,
		"TSVPerDie": r.TSVPerDie,
	}
	for name, v := range fields {
		if !(v >= 0) {
			return fmt.Errorf("fault: %s must be non-negative, got %v", name, v)
		}
	}
	if !(r.SubArrayFraction >= 0 && r.SubArrayFraction <= 1) {
		return fmt.Errorf("fault: SubArrayFraction must be in [0,1], got %v", r.SubArrayFraction)
	}
	if r.SubArrayRows < 0 {
		return fmt.Errorf("fault: SubArrayRows must be non-negative, got %d", r.SubArrayRows)
	}
	return nil
}
