"""One `qsl` job, timed, with layer spans or under cProfile.

    python3 bench/qsl_job.py time|trace|profile OUT <qsl arguments>

Does what `python3 -m qschur.cli <qsl arguments>` does, with the same
stdout, stderr and exit code.  It writes to OUT as JSON: when its imports
were done, the reference-loop samples it took and the seconds they cost
(speed.py), and in trace or profile mode the layer figures of the job.
"""

import json
import sys
import time

import qschur.cli as cli

import speed


def main():
    mode, out_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    ready = time.monotonic()
    figures = None
    if mode != "time":
        import layers
    if mode == "profile":
        import cProfile
        prof = cProfile.Profile()
        code = prof.runcall(cli.run, argv)
        figures = layers.profile_layers(prof)
        samples, spent = [], 0.0
    else:
        if mode == "trace":
            tracer = layers.Tracer()
            layers.instrument(tracer)
        with speed.Sampler() as sampler:
            code = cli.run(argv)
        if mode == "trace":
            figures = tracer.summary()
        samples, spent = sampler.samples, sampler.spent
    with open(out_path, "w") as fh:
        json.dump({"ready": ready, "reference": samples, "spent": spent,
                   "layers": figures}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
