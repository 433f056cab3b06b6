"""Watch the event list evolve as plans are inserted one at a time.

The paper describes a schedule as a sequence of events; each event knows which
tasks start and complete at its instant and which resources are occupied until
the next event.  The engine itself keeps only the maximal busy runs of each
resource and finds every task the earliest stretch of free time long enough
for it; the event list is derived from the start times, here after every plan.

This walkthrough uses the bundled five-plan example: plans 1 and 2 go in
first, then 3, 4 and 5 squeeze into the gaps.
"""

from plansched import Schedule
from plansched.data import load_bundled
from plansched.engine import schedule_plan_set
from plansched.model import event_list

instance = load_bundled("example2.json")
window = instance.window

# resource -> (sorted busy-run starts, their ends); every resource starts empty
busy = {rho: ([], []) for rho in instance.resources}
working = Schedule()


def show(events, resources=(1, 2, 3)):
    print(f"  {'t':>3} {'starting':<24} {'completing':<24} " + " ".join(f"b{r}" for r in resources))
    for event in events:
        starting = ",".join(f"J{p}.{i}" for p, i in sorted(event.starting)) or "-"
        completing = ",".join(f"J{p}.{i}" for p, i in sorted(event.completing)) or "-"
        bits = "  ".join(str(int(r in event.usage)) for r in resources)
        print(f"  {event.time:>3} {starting:<24} {completing:<24} {bits}")


for plan in instance.plans:
    ok = not schedule_plan_set([plan], working, busy, window)  # the ids it could not place
    print(f"\nafter inserting plan {plan.id} ({'placed' if ok else 'rejected'}):")
    show(event_list(working, instance))

print("\nfinal start times:", {f"J{p}.{i}": s for (p, i), s in sorted(working.starts.items())})
