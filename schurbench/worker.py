"""Long-lived schurcalc library process for the rings_warm workload.

Protocol: one JSON object per line on stdin, one reply per line on stdout.
The first request is {"warmup": [[ring, degree], ...]}; the worker reduces
c1^degree once on each ring and replies with its import time, the time of
each warm-up step and calibration kernel times taken around the steps.
Every later request is one ring operation; the reply holds the wall time
from call to return and the result in the CLI's JSON shape.  A request
{"calibrate": true} returns one calibration kernel time, {"rss": true} the
peak resident size, and {"trace": true} the tracer's counters (run with
--trace).
Needs PYTHONPATH to hold the checkout's src.
"""

import time

STARTED = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

from calibration import kernel  # noqa: E402


def peak_rss_kb() -> int:
    # VmHWM counts this process only; ru_maxrss also holds the resident size
    # of the process that spawned it
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    before = time.perf_counter()
    import schurcalc

    import_s = time.perf_counter() - before
    tracer = None
    if "--trace" in sys.argv[1:]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    rings = {}

    def ring(spec):
        key = tuple(spec)
        if key not in rings:
            if key[0] == "gr":
                rings[key] = schurcalc.GrassmannianRing(key[1], key[2])
            else:
                rings[key] = schurcalc.LagrangianRing(key[1])
        return rings[key]

    def polynomial(spec, text):
        rank = spec[1] if spec[0] == "gr" else spec[-1]
        return schurcalc.truncate_family(schurcalc.evaluate_text(text), schurcalc.FAMILY_C, rank)

    def expansion(x):
        return {"degree": x.degree, "expansion": x.to_json()}

    def reply(payload):
        sys.stdout.write(json.dumps(payload) + "\n")
        sys.stdout.flush()

    for line in sys.stdin:
        request = json.loads(line)
        if "warmup" in request:
            steps, samples = [], [kernel()]
            for spec, degree in request["warmup"]:
                before = time.perf_counter()
                ring(spec).reduce(polynomial(spec, f"c1^{degree}" if degree else "1"))
                steps.append(time.perf_counter() - before)
                samples.append(kernel())
            if tracer is not None:
                tracer.reset()
            reply({"started": STARTED, "import_s": import_s, "warmup_s": steps,
                   "kernel_s": samples})
            continue
        if "calibrate" in request:
            reply({"kernel_s": kernel()})
            continue
        if "rss" in request:
            reply({"peak_kb": peak_rss_kb()})
            continue
        if "trace" in request:
            reply(tracer.dump())
            continue
        try:
            spec, call = request["ring"], request["call"]
            target = ring(spec)
            if call in ("reduce", "integrate"):
                p = polynomial(spec, request["expr"])
                start = time.perf_counter()
                result = target.reduce(p)
                if call == "integrate":
                    result = target.integrate(result)
                elapsed = time.perf_counter() - start
                payload = {"value": str(result)} if call == "integrate" else expansion(result)
            else:
                lam = schurcalc.Partition(request["lam"])
                mu = request.get("mu")
                mu = schurcalc.Partition(mu) if mu is not None else None
                start = time.perf_counter()
                result = target.basis_product(lam, mu) if call == "basis_product" \
                    else target.restrict(lam)
                elapsed = time.perf_counter() - start
                payload = expansion(result)
            reply({"dt": elapsed, "payload": payload})
        except Exception:  # report and keep serving; the op counts as failed
            reply({"error": traceback.format_exc()})
    return 0


if __name__ == "__main__":
    sys.exit(main())
