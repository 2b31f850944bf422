#!/usr/bin/env python3
"""Rewrite reference.json: the input and output digests of every corpus
entry of every workload at the default seed.

    python3 bench/make_reference.py

Run it only when the corpus recipe changes on purpose; the program's
outputs are meant to stay bit-identical, and the harness counts any
differing digest as a failed op.
"""

import json

from run import DEFAULT_SEED, REFERENCE, import_package


def main():
    import_package()
    import workloads

    out = {"default_seed": DEFAULT_SEED, "workloads": {}}
    for name, workload in workloads.WORKLOADS.items():
        corpus = workload.corpus(DEFAULT_SEED)
        outputs = []
        for item in corpus:
            res = workload.op(item)
            text = res.output if isinstance(res.output, str) else workloads.canon(res.output)
            outputs.append(workloads.digest(text))
        out["workloads"][name] = {
            "inputs": [item.digest for item in corpus],
            "outputs": outputs,
        }
        print(f"{name}: {len(corpus)} entries")
    REFERENCE.write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
