"""
Executing plans with a ready-set scheduler
==========================================

A node starts as soon as all its predecessors have finished, so independent
nodes run concurrently.  A diamond of four 50ms tools therefore finishes in
~150ms instead of ~200ms.  Outputs flow along edges through "$node.field"
references, and tool failures are contained by the chosen policy instead of
raised.  ``waves`` and each node's ``wave`` are the static depth (the longest
chain of nodes ending there), not a record of when a node ran.
"""

from dagplan import MockRegistry, count_waves, execute, parse_plan, trace_to_dot

diamond = parse_plan(
    '{"nodes": [{"id": "fetch", "tool": "web.fetch", "args": {"url": "https://example.com"}},'
    '           {"id": "summarize", "tool": "nlp.summarize", "args": {"doc": "$fetch.digest"}},'
    '           {"id": "keywords", "tool": "nlp.keywords", "args": {"doc": "$fetch.digest"}},'
    '           {"id": "report", "tool": "report.compose",'
    '            "args": {"summary": "$summarize.digest", "terms": "$keywords.digest"}}],'
    ' "edges": [{"from": "fetch", "to": "summarize"}, {"from": "fetch", "to": "keywords"},'
    '           {"from": "summarize", "to": "report"}, {"from": "keywords", "to": "report"}]}'
)

print("critical-path depth (static):", count_waves(diamond))

registry = MockRegistry(latency=0.05)
parallel = execute(diamond, registry)
sequential = execute(diamond, registry, max_workers=1)
# Both runs report the same static depth; only the wall time differs.
print(f"parallel:   {parallel.waves} waves, {parallel.wall_time * 1000:.0f}ms")
print(f"sequential: {sequential.waves} waves, {sequential.wall_time * 1000:.0f}ms")

for nid, result in parallel.nodes.items():
    print(f"  wave {result.wave}  {nid:<10} {result.status}  latency {result.latency * 1000:.0f}ms")

# Data flowed along the edges: the report node saw both upstream digests.
report_args = parallel.nodes["report"].output["args"]
print("\nreport received:", report_args)

# Failure policies: fail_fast starts no node after the first failure,
# continue salvages the branches that do not depend on it.
flaky = MockRegistry(fail=("nlp.summarize",))
for policy in ("fail_fast", "continue"):
    trace = execute(diamond, flaky, policy=policy)
    print(f"\npolicy={policy}:", trace.statuses())

print("\n" + trace_to_dot(diamond, parallel))
