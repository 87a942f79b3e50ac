package uikit

import (
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/catalog"
	"repro/internal/event"
	"repro/internal/geodb"
	"repro/internal/geom"
)

// This file persists the interface objects library inside the geographic
// database — the concrete realization of the paper's thesis of "extending
// the underlying database with facilities for interface development". Each
// prototype becomes an instance of the InterfaceObject class in a reserved
// schema; the definition travels as a JSON document in a bitmap attribute
// (geometries serialized as WKT).

// LibrarySchema is the reserved schema holding interface objects.
const LibrarySchema = "_ui_library"

// LibraryClass is the class of persisted interface objects.
const LibraryClass = "InterfaceObject"

type widgetDTO struct {
	Kind      Kind              `json:"kind"`
	Name      string            `json:"name,omitempty"`
	Props     map[string]string `json:"props,omitempty"`
	Items     []string          `json:"items,omitempty"`
	Shapes    []shapeDTO        `json:"shapes,omitempty"`
	Children  []widgetDTO       `json:"children,omitempty"`
	Callbacks map[string]string `json:"callbacks,omitempty"`
}

type shapeDTO struct {
	OID    uint64 `json:"oid,omitempty"`
	WKT    string `json:"wkt,omitempty"`
	Label  string `json:"label,omitempty"`
	Format string `json:"format,omitempty"`
}

func toDTO(w *Widget) widgetDTO {
	dto := widgetDTO{Kind: w.Kind, Name: w.Name, Items: w.Items}
	if len(w.Props) > 0 {
		dto.Props = w.Props
	}
	if len(w.Callbacks) > 0 {
		dto.Callbacks = w.Callbacks
	}
	for _, s := range w.Shapes {
		sd := shapeDTO{OID: s.OID, Label: s.Label, Format: s.Format}
		if s.Geom != nil {
			sd.WKT = s.Geom.WKT()
		}
		dto.Shapes = append(dto.Shapes, sd)
	}
	for _, c := range w.Children {
		dto.Children = append(dto.Children, toDTO(c))
	}
	return dto
}

func fromDTO(dto widgetDTO) (*Widget, error) {
	w := New(dto.Kind, dto.Name)
	for k, v := range dto.Props {
		w.Props[k] = v
	}
	for k, v := range dto.Callbacks {
		w.Callbacks[k] = v
	}
	w.Items = dto.Items
	for _, sd := range dto.Shapes {
		s := Shape{OID: sd.OID, Label: sd.Label, Format: sd.Format}
		if sd.WKT != "" {
			g, err := geom.ParseWKT(sd.WKT)
			if err != nil {
				return nil, fmt.Errorf("shape of %q: %w", dto.Name, err)
			}
			s.Geom = g
		}
		w.Shapes = append(w.Shapes, s)
	}
	for _, cd := range dto.Children {
		c, err := fromDTO(cd)
		if err != nil {
			return nil, err
		}
		w.Children = append(w.Children, c)
	}
	return w, nil
}

// MarshalWidget serializes a widget subtree to its JSON document form.
func MarshalWidget(w *Widget) ([]byte, error) {
	return json.Marshal(toDTO(w))
}

// UnmarshalWidget parses a JSON widget document.
func UnmarshalWidget(data []byte) (*Widget, error) {
	var dto widgetDTO
	if err := json.Unmarshal(data, &dto); err != nil {
		return nil, fmt.Errorf("uikit: decode widget: %w", err)
	}
	w, err := fromDTO(dto)
	if err != nil {
		return nil, err
	}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	return w, nil
}

// ensureLibraryClass defines the reserved schema and class if absent.
func ensureLibraryClass(db *geodb.DB) error {
	if err := db.DefineSchema(LibrarySchema); err != nil && !errors.Is(err, catalog.ErrDuplicate) {
		return err
	}
	err := db.DefineClass(LibrarySchema, catalog.Class{
		Name: LibraryClass,
		Attrs: []catalog.Field{
			catalog.F("obj_name", catalog.Scalar(catalog.KindText)),
			catalog.F("definition", catalog.Scalar(catalog.KindBitmap)),
		},
	})
	if err != nil && !errors.Is(err, catalog.ErrDuplicate) {
		return err
	}
	return nil
}

// SaveToDB stores every prototype of the library as InterfaceObject
// instances, replacing prior contents in one transaction: one commit, and a
// prototype the database refuses leaves the previous library stored.
func (l *Library) SaveToDB(db *geodb.DB) error {
	if err := ensureLibraryClass(db); err != nil {
		return err
	}
	existing, err := db.Select(LibrarySchema, LibraryClass, nil)
	if err != nil {
		return err
	}
	txn := db.Begin(event.Context{Application: "_ui_library"})
	defer txn.Abort() // a no-op once committed
	for _, in := range existing {
		if err := txn.Delete(in.OID); err != nil {
			return err
		}
	}
	for _, name := range l.Names() {
		proto, err := l.Instantiate(name)
		if err != nil {
			return err
		}
		doc, err := MarshalWidget(proto)
		if err != nil {
			return fmt.Errorf("uikit: marshal %q: %w", name, err)
		}
		values, err := db.ValuesFromMap(LibrarySchema, LibraryClass, map[string]catalog.Value{
			"obj_name":   catalog.TextVal(name),
			"definition": catalog.BitmapVal(doc),
		})
		if err != nil {
			return err
		}
		if _, err := txn.Insert(LibrarySchema, LibraryClass, values); err != nil {
			return fmt.Errorf("uikit: persist %q: %w", name, err)
		}
	}
	return txn.Commit()
}

// LoadFromDB reads the persisted library from the database.
func LoadFromDB(db *geodb.DB) (*Library, error) {
	instances, err := db.Select(LibrarySchema, LibraryClass, nil)
	if err != nil {
		return nil, err
	}
	lib := NewLibrary()
	for _, in := range instances {
		nameV, _ := in.Get("obj_name")
		defV, _ := in.Get("definition")
		w, err := UnmarshalWidget(defV.Bitmap)
		if err != nil {
			return nil, fmt.Errorf("uikit: load %q: %w", nameV.Text, err)
		}
		w.Name = nameV.Text
		if err := lib.Register(w); err != nil {
			return nil, err
		}
	}
	return lib, nil
}
