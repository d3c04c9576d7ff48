// Command security demonstrates the query language on a non-bibliographic
// schema: a security-operations network of hosts, alerts, signatures and
// subnets (the application domain that motivated the paper's ARL funding).
// The analyst asks: among the hosts of one subnet, which ones raise alerts
// with unusual signatures compared to their peers?
package main

import (
	"fmt"
	"log"

	"netout"
)

func main() {
	// Alerts are the event vertices, linked to the host that raised them and
	// the detection signature that fired; hosts belong to subnets. Ordinary
	// hosts raise their subnet's routine signatures; the planted compromised
	// hosts of the first subnet mix routine noise with another subnet's
	// signatures and exfiltration alerts.
	g, man, err := netout.GenerateSecurity()
	if err != nil {
		log.Fatal(err)
	}
	st := g.Stats()
	fmt.Printf("security network: %d hosts, %d alerts, %d signatures, %d subnets; planted %v\n\n",
		st.PerType["host"], st.PerType["alert"], st.PerType["signature"], st.PerType["subnet"], man.Compromised)

	// Outlying hosts of the first subnet, judged by the signatures of the
	// alerts they raise — compared against their own subnet's peers.
	home, foreign := man.Subnets[0], man.Subnets[1]
	query := fmt.Sprintf(`FIND OUTLIERS
FROM subnet{%q}.host
JUDGED BY host.alert.signature
TOP 5;`, home)
	fmt.Println(query)
	eng := netout.NewEngine(g)
	res, err := eng.Execute(query)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%-4s %-9s %s\n", "rank", "Ω-value", "host")
	for i, e := range res.Entries {
		fmt.Printf("%-4d %-9.3f %s\n", i+1, e.Score, e.Name)
	}

	// Cross-subnet comparison: the same hosts judged against another
	// subnet's — under this reference set the host whose foreign alerts came
	// from that subnet looks *least* outlying, illustrating how the reference
	// set changes outlier semantics.
	query2 := fmt.Sprintf(`FIND OUTLIERS
FROM subnet{%q}.host
COMPARED TO subnet{%q}.host
JUDGED BY host.alert.signature;`, home, foreign)
	fmt.Printf("\n%s\n", query2)
	res2, err := eng.Execute(query2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%-4s %-9s %s   (least connected to %s behavior first)\n", "rank", "Ω-value", "host", foreign)
	for i, e := range res2.Entries {
		if i >= 5 {
			break
		}
		fmt.Printf("%-4d %-9.3f %s\n", i+1, e.Score, e.Name)
	}
	last := res2.Entries[len(res2.Entries)-1]
	fmt.Printf("\nnote: %q ranks last here — its alert profile is the one most like %s's.\n", last.Name, foreign)
}
