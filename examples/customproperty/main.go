// Custom properties: beyond the built-in S.1–S.5 and P.1–P.30
// catalogue, Soteria checks any CTL formula over the extracted state
// model. Atomic propositions are "capability.attribute=value" state
// facts and "ev:<event>" markers on states entered via an event. The
// built-in P.1–P.30 rules are written in the same CTL text (see
// internal/properties/catalogue.go), so a policy can start from one.
//
// This example analyzes a garage-automation app against three
// user-written policies and prints the model in Graphviz and NuSMV
// formats for inspection.
package main

import (
	"fmt"
	"log"

	"github.com/soteria-analysis/soteria"
)

const garageApp = `
definition(
    name: "Garage-Automation",
    namespace: "example",
    author: "Soteria Example",
    description: "Opens the garage on arrival, closes it on departure, lights the way.",
    category: "Convenience")

preferences {
    section("Garage") {
        input "garage", "capability.garageDoorControl", title: "Garage door", required: true
    }
    section("Presence") {
        input "driver", "capability.presenceSensor", title: "Driver", required: true
    }
    section("Light") {
        input "garage_light", "capability.switch", title: "Garage light", required: true
    }
}

def installed() {
    subscribe(driver, "presence.present", arrivedHandler)
    subscribe(driver, "presence.not present", departedHandler)
}

def arrivedHandler(evt) {
    garage.open()
    garage_light.on()
}

def departedHandler(evt) {
    garage.close()
    // Note: the light is left on after departure.
}
`

func main() {
	app, err := soteria.ParseApp("garage", garageApp)
	if err != nil {
		log.Fatal(err)
	}
	res, err := soteria.Analyze(app)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("model: %d states, %d transitions, %d catalogue violations\n\n",
		res.States, res.Transitions, len(res.Violations))

	policies := []struct {
		name    string
		formula string
	}{
		{
			"garage opens on arrival",
			`AG ("ev:presenceSensor.presence.present" -> "garageDoorControl.door=open")`,
		},
		{
			"garage closes on departure",
			`AG ("ev:presenceSensor.presence.not present" -> "garageDoorControl.door=closed")`,
		},
		{
			"no light left burning after departure",
			`AG ("ev:presenceSensor.presence.not present" -> "switch.switch=off")`,
		},
	}
	for _, p := range policies {
		holds, cex, err := res.CheckFormula(p.formula)
		if err != nil {
			log.Fatalf("%s: %v", p.name, err)
		}
		status := "HOLDS"
		if !holds {
			status = "FAILS"
		}
		fmt.Printf("%-40s %s\n", p.name, status)
		if cex != "" {
			fmt.Printf("  counterexample: %s\n", cex)
		}
	}

	fmt.Println("\n== Graphviz model (render with `dot -Tpng`) ==")
	fmt.Println(res.DOT())
	fmt.Println("== NuSMV model ==")
	fmt.Println(res.SMV())
}
