// Package tpch provides the relational-analytics substrate of §6.1: a
// deterministic in-process generator for the eight TPC-H relations
// (substituting dbgen) and the twenty-two TPC-H queries implemented both as
// incrementally maintained differential dataflows and as naive batch
// evaluations (the correctness oracle and full re-evaluation baseline).
//
// All columns are integer-coded: money is in cents, discounts and taxes in
// whole percent, dates in days since 1992-01-01, and categorical columns
// (brands, types, segments, priorities, ship modes, ...) as small integer
// codes. This keeps every aggregate exact (no floating-point reassociation),
// so dataflow and oracle results can be compared for equality. String
// predicates from the spec (LIKE '%green%', '%special%requests%') become
// code comparisons on generated columns; the join/group structure of every
// query is preserved.
package tpch

import "math/rand"

// Scale-factor-1 base cardinalities.
const (
	sfSupplier = 10000
	sfPart     = 200000
	sfCustomer = 150000
	sfOrders   = 1500000
)

// Categorical code spaces.
const (
	NumNations    = 25
	NumRegions    = 5
	NumBrands     = 25  // BRAND#(1+i/5)(1+i%5)
	NumTypes      = 150 // 6 * 5 * 5 syllables
	NumContainers = 40
	NumSegments   = 5
	NumPriorities = 5
	NumShipModes  = 7
	NumInstructs  = 4
	NumColors     = 92
)

// Derived type-code helpers: type = a*25 + b*5 + c with a in 0..5 (PROMO is
// a==4), c in 0..4 (BRASS is c==2).
const (
	TypePromoA = 4
	TypeBrassC = 2
)

// Date bounds (days since 1992-01-01).
const (
	DateMax     = 2405 // ~1998-08-02
	Year1993    = 366  // 1992 was a leap year
	Year1994    = 731
	Year1995    = 1096
	Year1996    = 1461
	Year1997    = 1827
	OneYearDays = 365
)

type Supplier struct {
	SuppKey   uint64
	NationKey int64
	AcctBal   int64 // cents
	Complaint bool  // comment LIKE '%Customer%Complaints%'
	NameCode  int64
}

type Customer struct {
	CustKey    uint64
	NationKey  int64
	AcctBal    int64
	MktSegment int64
	Phone      int64 // country code = NationKey + 10
}

type Part struct {
	PartKey     uint64
	Brand       int64
	TypeCode    int64
	Size        int64
	Container   int64
	Color       int64 // name's first color word
	RetailPrice int64
}

type PartSupp struct {
	PartKey    uint64
	SuppKey    uint64
	AvailQty   int64
	SupplyCost int64 // cents
}

type Order struct {
	OrderKey       uint64
	CustKey        uint64
	Status         int64 // 0=F 1=O 2=P
	TotalPrice     int64
	OrderDate      int64
	Priority       int64
	ShipPriority   int64
	SpecialRequest bool // comment NOT LIKE '%special%requests%' is the negation
	Clerk          int64
}

type LineItem struct {
	OrderKey      uint64
	PartKey       uint64
	SuppKey       uint64
	LineNumber    int64
	Quantity      int64 // whole units
	ExtendedPrice int64 // cents
	Discount      int64 // percent 0..10
	Tax           int64 // percent 0..8
	ReturnFlag    int64 // 0=A 1=N 2=R
	LineStatus    int64 // 0=O 1=F
	ShipDate      int64
	CommitDate    int64
	ReceiptDate   int64
	ShipInstruct  int64
	ShipMode      int64
}

// Data is one generated TPC-H instance.
type Data struct {
	Suppliers []Supplier
	Customers []Customer
	Parts     []Part
	PartSupps []PartSupp
	Orders    []Order
	Items     []LineItem
}

// NationOf returns the region of a nation (nations are assigned to regions
// round-robin, five per region, as in the reference data).
func NationRegion(nation int64) int64 { return nation % NumRegions }

// Generate builds a deterministic TPC-H instance at the given scale factor.
// sf = 0.01 yields roughly 60k lineitems.
func Generate(sf float64, seed int64) *Data {
	r := rand.New(rand.NewSource(seed))
	d := &Data{}
	nSupp := max1(int(sf * sfSupplier))
	nPart := max1(int(sf * sfPart))
	nCust := max1(int(sf * sfCustomer))
	nOrd := max1(int(sf * sfOrders))

	for i := 0; i < nSupp; i++ {
		d.Suppliers = append(d.Suppliers, Supplier{
			SuppKey:   uint64(i + 1),
			NationKey: int64(r.Intn(NumNations)),
			AcctBal:   int64(r.Intn(1100000)) - 100000, // -1000.00 .. 9999.99
			Complaint: r.Intn(200) < 1,
			NameCode:  int64(i + 1),
		})
	}
	for i := 0; i < nCust; i++ {
		nation := int64(r.Intn(NumNations))
		d.Customers = append(d.Customers, Customer{
			CustKey:    uint64(i + 1),
			NationKey:  nation,
			AcctBal:    int64(r.Intn(1100000)) - 100000,
			MktSegment: int64(r.Intn(NumSegments)),
			Phone:      nation + 10,
		})
	}
	for i := 0; i < nPart; i++ {
		d.Parts = append(d.Parts, Part{
			PartKey:     uint64(i + 1),
			Brand:       int64(r.Intn(NumBrands)),
			TypeCode:    int64(r.Intn(NumTypes)),
			Size:        int64(r.Intn(50) + 1),
			Container:   int64(r.Intn(NumContainers)),
			Color:       int64(r.Intn(NumColors)),
			RetailPrice: 90000 + int64(i%200)*100 + int64(r.Intn(1000)),
		})
		// Four suppliers per part, as in the spec.
		for s := 0; s < 4; s++ {
			d.PartSupps = append(d.PartSupps, PartSupp{
				PartKey:    uint64(i + 1),
				SuppKey:    uint64((i*4+s)%nSupp + 1),
				AvailQty:   int64(r.Intn(9999) + 1),
				SupplyCost: int64(r.Intn(100000) + 100),
			})
		}
	}
	for i := 0; i < nOrd; i++ {
		ok := uint64(i + 1)
		odate := int64(r.Intn(DateMax - 151))
		o := Order{
			OrderKey:       ok,
			CustKey:        uint64(r.Intn(nCust) + 1),
			OrderDate:      odate,
			Priority:       int64(r.Intn(NumPriorities)),
			ShipPriority:   0,
			SpecialRequest: r.Intn(100) < 2,
			Clerk:          int64(r.Intn(1000)),
		}
		nItems := r.Intn(7) + 1
		var total int64
		status := int64(1) // O
		allF := true
		anyF := false
		for l := 0; l < nItems; l++ {
			ship := odate + int64(r.Intn(121)+1)
			li := LineItem{
				OrderKey:     ok,
				PartKey:      uint64(r.Intn(nPart) + 1),
				SuppKey:      uint64(r.Intn(nSupp) + 1),
				LineNumber:   int64(l + 1),
				Quantity:     int64(r.Intn(50) + 1),
				Discount:     int64(r.Intn(11)),
				Tax:          int64(r.Intn(9)),
				ShipDate:     ship,
				CommitDate:   odate + int64(r.Intn(121)+30),
				ReceiptDate:  ship + int64(r.Intn(30)+1),
				ShipInstruct: int64(r.Intn(NumInstructs)),
				ShipMode:     int64(r.Intn(NumShipModes)),
			}
			li.ExtendedPrice = li.Quantity * (90000 + int64(li.PartKey%200)*100) / 100
			if ship > Year1995+167 { // roughly past mid-1995: still open
				li.ReturnFlag = 1 // N
				li.LineStatus = 0 // O
				allF = false
			} else {
				li.LineStatus = 1 // F
				anyF = true
				if r.Intn(2) == 0 {
					li.ReturnFlag = 0 // A
				} else {
					li.ReturnFlag = 2 // R
				}
			}
			total += li.ExtendedPrice * (100 - li.Discount) * (100 + li.Tax) / 10000
			d.Items = append(d.Items, li)
		}
		if allF && anyF {
			status = 0 // F
		} else if anyF {
			status = 2 // P
		}
		o.Status = status
		o.TotalPrice = total
		d.Orders = append(d.Orders, o)
	}
	return d
}

func max1(x int) int {
	if x < 1 {
		return 1
	}
	return x
}
