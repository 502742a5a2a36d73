#!/usr/bin/env python3
"""Docs/tree sync check (run from the repository root).

Fails when the documentation drifts from the actual source tree:
  * every src/<group>/<module> must be mentioned (as "group/module")
    in docs/ARCHITECTURE.md, and every mentioned module must exist;
  * every bench/bench_<name>.cc must be mentioned in
    docs/BENCHMARKS.md;
  * every bench binary must have a golden
    (bench/goldens/BENCH_<name>.json) and every golden a binary;
  * docs/SERVING.md must cover every src/serve module, every
    serve::SchedulerConfig knob, every serve::Outcome value (as
    `Outcome::X`), the SOFA_FAULTS variable and the common/faultplan
    grammar, and bench_serve (and must not mention modules or
    Outcome values that no longer exist);
  * every SOFA_* name the docs (README.md, docs/*.md) mention — an
    environment variable, CMake option or macro — must still occur
    in the code (src/, bench/, tests/, scripts/, CMake files), so a
    deleted knob cannot stay documented;
  * every backticked identifier containing "Backend" in those docs
    must be a class, struct or enum class declared in src/serve/*.h,
    so a deleted or misnamed Backend type cannot stay documented;
  * every backticked `Type::member` in those docs (Type capitalized,
    so namespaces like std:: are skipped) must name a type and a
    member that both still occur in src/, so a deleted field, method
    or enum value cannot stay documented;
  * every backticked CamelCase name in those docs (two or more
    capitalized words run together, e.g. a type) must occur in src/
    or in a CMakeLists.txt, so a deleted type cannot stay
    documented;
  * no file under src/{common,tensor,sparsity,model,attention,core,
    serve} may include arch/, baselines/ or energy/: the paper's
    cycle model and the GPU/TPU baselines are evaluation models that
    benches and examples call, not dependencies of the runtime;
  * every src/serve header, plus src/common/threadpool.h,
    src/core/engine.h and src/model/model_workload.h, must carry the
    Units/assumptions header-comment line (the PR-3 documentation
    convention).

Run by CI's docs job and registered as the docs_sync CTest.
"""

import glob
import os
import re
import sys


def read(path):
    with open(path, "r", encoding="utf-8") as f:
        return f.read()


def main():
    errors = []

    # --- src modules <-> docs/ARCHITECTURE.md -------------------
    arch_doc = read("docs/ARCHITECTURE.md")
    modules = set()
    for path in glob.glob("src/*/*.h") + glob.glob("src/*/*.cc"):
        group = os.path.basename(os.path.dirname(path))
        stem = os.path.splitext(os.path.basename(path))[0]
        modules.add(f"{group}/{stem}")
    for mod in sorted(modules):
        if mod not in arch_doc:
            errors.append(
                f"docs/ARCHITECTURE.md: src module {mod} not listed")
    # Stale mentions: every "group/stem" the doc names must exist.
    groups = {m.split("/")[0] for m in modules}
    pattern = re.compile(
        r"\b(" + "|".join(sorted(groups)) + r")/([a-z0-9_]+)\b")
    for g, stem in set(pattern.findall(arch_doc)):
        if f"{g}/{stem}" not in modules:
            errors.append(f"docs/ARCHITECTURE.md: {g}/{stem} "
                          "mentioned but not in src/")

    # --- serving docs <-> src/serve -----------------------------
    serving_doc = read("docs/SERVING.md")
    for mod in sorted(m for m in modules if m.startswith("serve/")):
        if mod not in serving_doc:
            errors.append(
                f"docs/SERVING.md: serve module {mod} not documented")
    for g, stem in set(pattern.findall(serving_doc)):
        if f"{g}/{stem}" not in modules:
            errors.append(f"docs/SERVING.md: {g}/{stem} mentioned "
                          "but not in src/")
    if "bench_serve" not in serving_doc:
        errors.append("docs/SERVING.md: bench_serve not documented")
    # Every scheduler tuning knob must be documented: parse the
    # SchedulerConfig field names (with or without a default
    # initializer) straight from the header so renames or additions
    # can't silently drift.
    sched_header = read("src/serve/scheduler.h")
    cfg_match = re.search(
        r"struct SchedulerConfig\s*\{(.*?)\n\};", sched_header,
        re.DOTALL)
    if not cfg_match:
        errors.append("src/serve/scheduler.h: SchedulerConfig "
                      "struct not found (check_docs parses it)")
    else:
        knobs = re.findall(
            r"^\s*[A-Za-z_][\w:<>]*\s+(\w+)\s*(?:=[^;]*)?;",
            cfg_match.group(1), re.MULTILINE)
        if not knobs:
            errors.append("src/serve/scheduler.h: no SchedulerConfig "
                          "knobs parsed (check_docs regex stale?)")
        for knob in knobs:
            if f"`{knob}`" not in serving_doc:
                errors.append(f"docs/SERVING.md: SchedulerConfig "
                              f"knob `{knob}` not documented")

    # Every request outcome must be documented as `Outcome::X` (the
    # fault-model section's contract table), and the doc must not
    # name outcomes that were removed from the enum.
    request_header = read("src/serve/request.h")
    outcome_match = re.search(
        r"enum class Outcome\s*\{(.*?)\};", request_header,
        re.DOTALL)
    if not outcome_match:
        errors.append("src/serve/request.h: Outcome enum not found "
                      "(check_docs parses it)")
    else:
        body = re.sub(r"//[^\n]*", "", outcome_match.group(1))
        values = re.findall(r"\b([A-Z]\w*)\b", body)
        if not values:
            errors.append("src/serve/request.h: no Outcome values "
                          "parsed (check_docs regex stale?)")
        for v in values:
            if f"`Outcome::{v}`" not in serving_doc:
                errors.append(f"docs/SERVING.md: `Outcome::{v}` "
                              "not documented")
        for v in set(re.findall(r"Outcome::(\w+)", serving_doc)):
            if v not in values:
                errors.append(f"docs/SERVING.md: Outcome::{v} "
                              "mentioned but not in the enum")

    # Every scheduling policy must be documented (the policy table),
    # parsed from the SchedulingPolicy enum so a new policy cannot
    # land without its row.
    queue_header = read("src/serve/request_queue.h")
    policy_match = re.search(
        r"enum class SchedulingPolicy\s*\{(.*?)\};", queue_header,
        re.DOTALL)
    if not policy_match:
        errors.append("src/serve/request_queue.h: SchedulingPolicy "
                      "enum not found (check_docs parses it)")
    else:
        body = re.sub(r"//[^\n]*", "", policy_match.group(1))
        variants = re.findall(r"\b([A-Z]\w*)\b", body)
        if not variants:
            errors.append("src/serve/request_queue.h: no "
                          "SchedulingPolicy variants parsed "
                          "(check_docs regex stale?)")
        for v in variants:
            if f"`{v}`" not in serving_doc:
                errors.append(f"docs/SERVING.md: SchedulingPolicy "
                              f"variant `{v}` not documented")

    # Every fleet routing policy must be documented (the backends &
    # routing section), parsed from the RoutingPolicy enum so a new
    # policy cannot land without its row, and every Backend
    # implementation class must be mentioned by name.
    backend_header = read("src/serve/backend.h")
    routing_match = re.search(
        r"enum class RoutingPolicy\s*\{(.*?)\};", backend_header,
        re.DOTALL)
    if not routing_match:
        errors.append("src/serve/backend.h: RoutingPolicy enum not "
                      "found (check_docs parses it)")
    else:
        body = re.sub(r"//[^\n]*", "", routing_match.group(1))
        variants = re.findall(r"\b([A-Z]\w*)\b", body)
        if not variants:
            errors.append("src/serve/backend.h: no RoutingPolicy "
                          "variants parsed (check_docs regex stale?)")
        for v in variants:
            if f"`{v}`" not in serving_doc:
                errors.append(f"docs/SERVING.md: RoutingPolicy "
                              f"variant `{v}` not documented")
    backend_impls = re.findall(
        r"class (\w+Backend)\s*(?:final\s*)?:\s*public Backend",
        backend_header)
    if not backend_impls:
        errors.append("src/serve/backend.h: no Backend "
                      "implementations parsed (check_docs regex "
                      "stale?)")
    for impl in backend_impls:
        if impl not in serving_doc:
            errors.append(f"docs/SERVING.md: Backend implementation "
                          f"{impl} not documented")

    # The fault model must be documented: the injection grammar's
    # environment hook and the module implementing it.
    for needle in ("SOFA_FAULTS", "common/faultplan"):
        if needle not in serving_doc:
            errors.append(f"docs/SERVING.md: {needle} not documented "
                          "(fault-model section)")

    # --- SOFA_* names in the docs <-> the code -----------------
    # Environment variables, CMake options and macros are documented
    # by name; once the code stops reading one, the docs must drop it.
    docs = ["README.md"] + sorted(glob.glob("docs/*.md"))
    code = "\n".join(
        read(p) for p in glob.glob("src/*/*") + glob.glob("bench/*")
        + glob.glob("benchmark/*") + glob.glob("examples/*")
        + glob.glob("tests/**/*", recursive=True)
        + glob.glob("scripts/*") + ["CMakeLists.txt"]
        if os.path.isfile(p))
    known = set(re.findall(r"\bSOFA_[A-Z0-9_]+\b", code))
    for path in docs:
        for name in sorted(set(re.findall(r"\bSOFA_[A-Z0-9_]+\b",
                                          read(path)))):
            if name not in known:
                errors.append(f"{path}: {name} mentioned but no "
                              "longer used by the code")

    # --- backticked Backend types in the docs <-> src/serve -----
    serve_types = set()
    for path in glob.glob("src/serve/*.h"):
        serve_types.update(re.findall(
            r"\b(?:class|struct|enum\s+class)\s+(\w+)", read(path)))
    for path in docs:
        named = set()
        for span in re.findall(r"`([^`\n]+)`", read(path)):
            named.update(re.findall(r"\b\w*Backend\w*\b", span))
        for name in sorted(named - serve_types):
            errors.append(f"{path}: `{name}` is not a type declared "
                          "in src/serve/*.h")

    # --- backticked Type::member names in the docs <-> src/ ----
    src_words = set(re.findall(r"\w+", "\n".join(
        read(p) for p in glob.glob("src/**/*", recursive=True)
        if os.path.isfile(p))))
    for path in docs:
        named = set()
        for span in re.findall(r"`([^`\n]+)`", read(path)):
            named.update(re.findall(r"\b([A-Z]\w*)::(\w+)", span))
        for typ, member in sorted(named):
            if typ not in src_words or member not in src_words:
                errors.append(f"{path}: `{typ}::{member}` names "
                              "something src/ no longer has")

    # --- backticked CamelCase names in the docs <-> src/ -------
    cmake_words = set(re.findall(r"\w+", "\n".join(
        read(p) for p in ["CMakeLists.txt"]
        + glob.glob("*/CMakeLists.txt"))))
    for path in docs:
        named = set()
        for span in re.findall(r"`([^`\n]+)`", read(path)):
            named.update(re.findall(
                r"\b[A-Z][a-z0-9]+(?:[A-Z][a-z0-9]*)+\b", span))
        for name in sorted(named - src_words - cmake_words):
            errors.append(f"{path}: `{name}` occurs in neither src/ "
                          "nor a CMakeLists.txt")

    # --- layering: the runtime never includes the models --------
    runtime = ("common", "tensor", "sparsity", "model", "attention",
               "core", "serve")
    for group in runtime:
        for path in sorted(glob.glob(f"src/{group}/*")):
            for inc in re.findall(
                    r'^\s*#\s*include\s+"((?:arch|baselines|energy)/'
                    r'[^"]+)"', read(path), re.MULTILINE):
                errors.append(f"{path}: includes {inc} (the runtime "
                              "must not depend on arch/, baselines/ "
                              "or energy/)")

    # --- Units/assumptions header-comment convention ------------
    units_files = sorted(glob.glob("src/serve/*.h")) + [
        "src/common/threadpool.h",
        "src/core/engine.h",
        "src/model/model_workload.h",
    ]
    for path in units_files:
        if "Units:" not in read(path):
            errors.append(f"{path}: missing the 'Units:' "
                          "header-comment line (see docs/SERVING.md)")

    # --- bench binaries <-> docs/BENCHMARKS.md ------------------
    bench_doc = read("docs/BENCHMARKS.md")
    benches = sorted(
        os.path.splitext(os.path.basename(p))[0]
        for p in glob.glob("bench/bench_*.cc"))
    for b in benches:
        if b not in bench_doc:
            errors.append(f"docs/BENCHMARKS.md: {b} not documented")
    for b in set(re.findall(r"\bbench_[a-z0-9_]+\b", bench_doc)):
        if b not in benches:
            errors.append(f"docs/BENCHMARKS.md: {b} documented but "
                          f"bench/{b}.cc does not exist")

    # --- bench binaries <-> goldens -----------------------------
    goldens = sorted(
        os.path.basename(p)[len("BENCH_"):-len(".json")]
        for p in glob.glob("bench/goldens/BENCH_*.json"))
    names = [b[len("bench_"):] for b in benches]
    for n in names:
        if n not in goldens:
            errors.append(f"bench/goldens/BENCH_{n}.json missing "
                          "(scripts/bench.sh --quick "
                          "--update-goldens --only " + n + ")")
    for g in goldens:
        if g not in names:
            errors.append(f"bench/goldens/BENCH_{g}.json is stale: "
                          f"no bench_{g}.cc")

    if errors:
        for e in errors:
            print(f"check_docs: {e}")
        print(f"check_docs: {len(errors)} problem(s)")
        return 1
    print(f"check_docs: {len(modules)} src modules, {len(benches)} "
          "bench binaries, serving docs, SOFA_* names, Backend types, "
          "Type::member and CamelCase names, layering, units headers "
          "and goldens all in sync")
    return 0


if __name__ == "__main__":
    sys.exit(main())
