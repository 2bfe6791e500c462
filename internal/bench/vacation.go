package bench

import (
	"fmt"
	"math/rand/v2"

	"qrdtm/internal/core"
	"qrdtm/internal/proto"
)

// vacQuerySpan is how many rows a reservation step inspects before picking
// the cheapest available one, mirroring STAMP vacation's relation queries.
const vacQuerySpan = 4

// vacKinds are the resource relations; a reservation transaction makes one
// closed-nested call per kind, exactly as the paper describes ("each of the
// reservations for car, hotel and flight forms a CT").
var vacKinds = []string{"car", "flight", "room"}

// ReservationItem is one row of a vacation relation.
type ReservationItem struct {
	Price int64
	Total int64
	Used  int64
}

// CloneValue implements proto.Value.
func (r ReservationItem) CloneValue() proto.Value { return r }

// CustomerRecord accumulates a customer's reservations.
type CustomerRecord struct {
	Count int64
	Spent int64
}

// CloneValue implements proto.Value.
func (c CustomerRecord) CloneValue() proto.Value { return c }

// Vacation is the STAMP-style travel-reservation macro-benchmark: relations
// of cars, flights and rooms plus customer records, all as DTM objects. A
// transaction is a sequence of reservation operations, each querying a few
// rows of one relation and booking the cheapest available.
type Vacation struct {
	prefix string
}

// NewVacation builds a vacation workload.
func NewVacation(name string) *Vacation { return &Vacation{prefix: name} }

// Name implements Workload.
func (v *Vacation) Name() string { return "Vacation" }

func (v *Vacation) item(kind string, i int) proto.ObjectID {
	return proto.ObjectID(fmt.Sprintf("%s/%s%d", v.prefix, kind, i))
}

func (v *Vacation) customer(i int) proto.ObjectID {
	return proto.ObjectID(fmt.Sprintf("%s/cust%d", v.prefix, i))
}

// Setup implements Workload: Objects rows per relation and Objects
// customers.
func (v *Vacation) Setup(p Params, rng *rand.Rand) []proto.ObjectCopy {
	var copies []proto.ObjectCopy
	for _, kind := range vacKinds {
		for i := 0; i < p.Objects; i++ {
			copies = append(copies, proto.ObjectCopy{
				ID: v.item(kind, i), Version: 1,
				Val: ReservationItem{Price: int64(50 + rng.IntN(450)), Total: 1 << 40},
			})
		}
	}
	for i := 0; i < p.Objects; i++ {
		copies = append(copies, proto.ObjectCopy{ID: v.customer(i), Version: 1, Val: CustomerRecord{}})
	}
	return copies
}

// NewTxn implements Workload: one customer per transaction, p.Ops
// reservation (or query) steps cycling through the relations.
func (v *Vacation) NewTxn(rng *rand.Rand, p Params) (core.State, []core.Step) {
	cust := rng.IntN(p.Objects)
	steps := make([]core.Step, p.Ops)
	for i := range steps {
		kind := vacKinds[i%len(vacKinds)]
		rows := make([]int, vacQuerySpan)
		for j := range rows {
			rows[j] = rng.IntN(p.Objects)
		}
		if rng.Float64() < p.ReadRatio {
			steps[i] = v.queryStep(kind, rows)
		} else {
			steps[i] = v.reserveStep(kind, rows, cust)
		}
	}
	return core.NoState{}, steps
}

// rowIDs maps the queried row indexes to their object ids (the step's
// known-up-front read set), optionally appending extra ids to prefetch.
func (v *Vacation) rowIDs(kind string, rows []int, extra ...proto.ObjectID) []proto.ObjectID {
	ids := make([]proto.ObjectID, 0, len(rows)+len(extra))
	for _, row := range rows {
		ids = append(ids, v.item(kind, row))
	}
	return append(ids, extra...)
}

// queryStep reads the queried rows and computes the best offer (read-only).
func (v *Vacation) queryStep(kind string, rows []int) core.Step {
	return func(tx *core.Txn, _ core.State) error {
		// The relation query's rows are chosen before the step runs — fetch
		// them in one batched round; the per-row reads below resolve locally.
		if err := tx.ReadAll(v.rowIDs(kind, rows)...); err != nil {
			return err
		}
		best := int64(-1)
		for _, row := range rows {
			val, ok, err := readVal(tx, v.item(kind, row))
			if err != nil {
				return err
			}
			if !ok {
				return fmt.Errorf("vacation: missing row %s/%d", kind, row)
			}
			it := val.(ReservationItem)
			if it.Used < it.Total && (best < 0 || it.Price < best) {
				best = it.Price
			}
		}
		return nil
	}
}

// reserveStep queries the rows, books the cheapest available and charges
// the customer.
func (v *Vacation) reserveStep(kind string, rows []int, cust int) core.Step {
	return func(tx *core.Txn, _ core.State) error {
		// Rows and customer are all known up front: one batched round covers
		// the whole reservation's reads.
		if err := tx.ReadAll(v.rowIDs(kind, rows, v.customer(cust))...); err != nil {
			return err
		}
		bestRow := -1
		var bestItem ReservationItem
		for _, row := range rows {
			val, ok, err := readVal(tx, v.item(kind, row))
			if err != nil {
				return err
			}
			if !ok {
				return fmt.Errorf("vacation: missing row %s/%d", kind, row)
			}
			it := val.(ReservationItem)
			if it.Used < it.Total && (bestRow < 0 || it.Price < bestItem.Price) {
				bestRow, bestItem = row, it
			}
		}
		if bestRow < 0 {
			return nil // everything booked out
		}
		bestItem.Used++
		if err := tx.Write(v.item(kind, bestRow), bestItem); err != nil {
			return err
		}
		cv, ok, err := readVal(tx, v.customer(cust))
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("vacation: missing customer %d", cust)
		}
		rec := cv.(CustomerRecord)
		rec.Count++
		rec.Spent += bestItem.Price
		return tx.Write(v.customer(cust), rec)
	}
}

// Verify implements Workload: reservations and customer records must agree
// — total bookings equal total customer reservation counts, and revenue
// matches sum(price × used).
func (v *Vacation) Verify(p Params, read Oracle) error {
	var used, revenue int64
	for _, kind := range vacKinds {
		for i := 0; i < p.Objects; i++ {
			val, ok := read(v.item(kind, i))
			if !ok {
				return fmt.Errorf("vacation: missing row %s/%d", kind, i)
			}
			it := val.(ReservationItem)
			if it.Used < 0 || it.Used > it.Total {
				return fmt.Errorf("vacation: row %s/%d overbooked: %d/%d", kind, i, it.Used, it.Total)
			}
			used += it.Used
			revenue += it.Used * it.Price
		}
	}
	var count, spent int64
	for i := 0; i < p.Objects; i++ {
		val, ok := read(v.customer(i))
		if !ok {
			return fmt.Errorf("vacation: missing customer %d", i)
		}
		rec := val.(CustomerRecord)
		count += rec.Count
		spent += rec.Spent
	}
	if used != count {
		return fmt.Errorf("vacation: %d bookings but customers hold %d reservations", used, count)
	}
	if revenue != spent {
		return fmt.Errorf("vacation: revenue %d != customer spend %d", revenue, spent)
	}
	return nil
}
