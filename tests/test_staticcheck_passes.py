"""Per-rule bad/good fixture pairs for every staticcheck pass."""

import textwrap

from repro.staticcheck import analyze_source


def check(source, path="repro/core/example.py", rules=None):
    """Analyse a dedented snippet under a virtual path."""
    return analyze_source(textwrap.dedent(source), path, rules=rules)


def rules_of(findings):
    """The set of rule ids among findings."""
    return {f.rule for f in findings}


class TestUnitMix:
    def test_flags_ns_plus_us_arithmetic(self):
        findings = check("""
            def total(delay_ns, idle_us):
                return delay_ns + idle_us
        """, rules=["unit-mix"])
        assert rules_of(findings) == {"unit-mix"}

    def test_flags_dropped_conversion_on_assignment(self):
        findings = check("""
            def advance(now_ns, last_update_ns):
                dt_s = now_ns - last_update_ns
                return dt_s
        """, rules=["unit-mix"])
        assert rules_of(findings) == {"unit-mix"}

    def test_flags_volt_plus_current(self):
        findings = check("""
            def bogus(vcc, icc):
                return vcc + icc
        """, rules=["unit-mix"])
        assert rules_of(findings) == {"unit-mix"}

    def test_accepts_same_unit_arithmetic(self):
        findings = check("""
            def total(delay_ns, settle_ns):
                return delay_ns + settle_ns
        """, rules=["unit-mix"])
        assert findings == []

    def test_accepts_explicit_conversion(self):
        findings = check("""
            from repro.units import us_to_ns

            def total(delay_ns, idle_us):
                return delay_ns + us_to_ns(idle_us)
        """, rules=["unit-mix"])
        assert findings == []

    def test_accepts_compound_per_units(self):
        findings = check("""
            def slew(delta_mv, slew_mv_per_us):
                return delta_mv / slew_mv_per_us
        """, rules=["unit-mix"])
        assert findings == []

    def test_accepts_constant_scaling(self):
        findings = check("""
            def scale(v_from, v_to):
                delta_mv = abs(v_to - v_from) * 1000.0
                return delta_mv
        """, rules=["unit-mix"])
        assert findings == []


class TestUnitCompare:
    def test_flags_ns_vs_us_comparison(self):
        findings = check("""
            def expired(idle_ns, close_us):
                return idle_ns >= close_us
        """, rules=["unit-compare"])
        assert rules_of(findings) == {"unit-compare"}

    def test_accepts_converted_comparison(self):
        findings = check("""
            from repro.units import us_to_ns

            def expired(idle_ns, close_us):
                return idle_ns >= us_to_ns(close_us)
        """, rules=["unit-compare"])
        assert findings == []


class TestUnitArg:
    def test_flags_us_passed_to_converter_expecting_ns(self):
        findings = check("""
            from repro.units import ns_to_s

            def f(wait_us):
                return ns_to_s(wait_us)
        """, rules=["unit-arg"])
        assert rules_of(findings) == {"unit-arg"}

    def test_flags_us_passed_where_signature_says_ns(self):
        findings = check("""
            def schedule(delay_ns):
                return delay_ns

            def caller(timeout_us):
                return schedule(timeout_us)
        """, rules=["unit-arg"])
        assert rules_of(findings) == {"unit-arg"}

    def test_flags_keyword_argument_mismatch(self):
        findings = check("""
            def schedule(delay_ns):
                return delay_ns

            def caller(timeout_us):
                return schedule(delay_ns=timeout_us)
        """, rules=["unit-arg"])
        assert rules_of(findings) == {"unit-arg"}

    def test_accepts_matching_units(self):
        findings = check("""
            def schedule(delay_ns):
                return delay_ns

            def caller(timeout_ns):
                return schedule(timeout_ns)
        """, rules=["unit-arg"])
        assert findings == []

    def test_ambiguous_signatures_are_skipped(self):
        findings = check("""
            def schedule(delay_ns):
                return delay_ns

            def caller(timeout_us):
                return schedule(timeout_us)
        """, rules=["unit-arg"]) and check("""
            class A:
                def schedule(self, delay_ns):
                    return delay_ns

            class B:
                def schedule(self, when_us, prio):
                    return when_us

            def caller(timeout_us, obj):
                return obj.schedule(timeout_us)
        """, rules=["unit-arg"])
        assert findings == []


class TestUnitReturn:
    def test_flags_us_returned_from_ns_function(self):
        findings = check("""
            def wake_latency_ns(entry_us):
                return entry_us
        """, rules=["unit-return"])
        assert rules_of(findings) == {"unit-return"}

    def test_accepts_converted_return(self):
        findings = check("""
            from repro.units import us_to_ns

            def wake_latency_ns(entry_us):
                return us_to_ns(entry_us)
        """, rules=["unit-return"])
        assert findings == []


class TestUnitFreqDiv:
    def test_flags_time_divided_by_frequency(self):
        findings = check("""
            def wrong(window_ns, freq_ghz):
                return window_ns / freq_ghz
        """, rules=["unit-freq-div"])
        assert rules_of(findings) == {"unit-freq-div"}

    def test_accepts_cycles_divided_by_frequency(self):
        findings = check("""
            def right(cycles, freq_ghz):
                return cycles / freq_ghz
        """, rules=["unit-freq-div"])
        assert findings == []

    def test_accepts_time_times_frequency(self):
        findings = check("""
            def cycles_in(window_ns, freq_ghz):
                return window_ns * freq_ghz
        """, rules=["unit-freq-div"])
        assert findings == []


class TestHeapTiebreak:
    def test_flags_two_tuple_heap_entry(self):
        findings = check("""
            import heapq

            def schedule(heap, time_ns, handle):
                heapq.heappush(heap, (time_ns, handle))
        """, rules=["heap-tiebreak"])
        assert rules_of(findings) == {"heap-tiebreak"}

    def test_accepts_three_tuple_with_sequence(self):
        findings = check("""
            import heapq

            def schedule(heap, time_ns, seq, handle):
                heapq.heappush(heap, (time_ns, next(seq), handle))
        """, rules=["heap-tiebreak"])
        assert findings == []


class TestUnorderedIter:
    def test_flags_iteration_over_set_literal(self):
        findings = check("""
            def total(a, b, c):
                acc = 0.0
                for value in {a, b, c}:
                    acc += value
                return acc
        """, rules=["unordered-iter"])
        assert rules_of(findings) == {"unordered-iter"}

    def test_flags_iteration_over_set_local(self):
        findings = check("""
            def digest(values):
                seen = set(values)
                return [v for v in seen]
        """, rules=["unordered-iter"])
        assert rules_of(findings) == {"unordered-iter"}

    def test_accepts_sorted_iteration(self):
        findings = check("""
            def digest(values):
                seen = set(values)
                return [v for v in sorted(seen)]
        """, rules=["unordered-iter"])
        assert findings == []

    def test_accepts_list_iteration(self):
        findings = check("""
            def total(values):
                acc = 0.0
                for value in values:
                    acc += value
                return acc
        """, rules=["unordered-iter"])
        assert findings == []


class TestPoolCallable:
    def test_flags_lambda_task(self):
        findings = check("""
            def sweep(runner, grid):
                return runner.map(lambda kw: kw, grid)
        """, rules=["pool-callable"])
        assert rules_of(findings) == {"pool-callable"}

    def test_flags_lambda_bound_to_name(self):
        findings = check("""
            def sweep(runner, grid):
                task = lambda kw: kw
                return runner.map(task, grid)
        """, rules=["pool-callable"])
        assert rules_of(findings) == {"pool-callable"}

    def test_flags_locally_defined_task(self):
        findings = check("""
            def sweep(runner, grid):
                def task(**kw):
                    return kw
                return runner.map(task, grid)
        """, rules=["pool-callable"])
        assert rules_of(findings) == {"pool-callable"}

    def test_flags_bound_method_task(self):
        findings = check("""
            def sweep(runner, model, grid):
                return runner.map(model.evaluate, grid)
        """, rules=["pool-callable"])
        assert rules_of(findings) == {"pool-callable"}

    def test_flags_lambda_to_executor_submit(self):
        findings = check("""
            def launch(executor, x):
                return executor.submit(lambda: x + 1)
        """, rules=["pool-callable"])
        assert rules_of(findings) == {"pool-callable"}

    def test_accepts_module_level_task(self):
        findings = check("""
            def task(**kw):
                return kw

            def sweep(runner, grid):
                return runner.map(task, grid)
        """, rules=["pool-callable"])
        assert findings == []

    def test_accepts_imported_module_function(self):
        findings = check("""
            import math

            def sweep(runner, grid):
                return runner.map(math.sqrt, grid)
        """, rules=["pool-callable"])
        assert findings == []

    def test_ignores_non_pool_map(self):
        findings = check("""
            def render(template, rows):
                return template.map(lambda r: r, rows)
        """, rules=["pool-callable"])
        assert findings == []


class TestPoolGlobal:
    def test_flags_global_statement_in_task(self):
        findings = check("""
            COUNTER = 0

            def task(**kw):
                global COUNTER
                COUNTER += 1
                return kw

            def sweep(runner, grid):
                return runner.map(task, grid)
        """, rules=["pool-global"])
        assert rules_of(findings) == {"pool-global"}

    def test_flags_append_to_module_global(self):
        findings = check("""
            RESULTS = []

            def task(**kw):
                RESULTS.append(kw)
                return kw

            def sweep(runner, grid):
                return runner.map(task, grid)
        """, rules=["pool-global"])
        assert rules_of(findings) == {"pool-global"}

    def test_flags_subscript_store_into_module_global(self):
        findings = check("""
            TABLE = {}

            def task(key, value):
                TABLE[key] = value
                return value

            def sweep(runner, grid):
                return runner.map(task, grid)
        """, rules=["pool-global"])
        assert rules_of(findings) == {"pool-global"}

    def test_accepts_pure_task(self):
        findings = check("""
            def task(**kw):
                local = dict(kw)
                local["x"] = 1
                return local

            def sweep(runner, grid):
                return runner.map(task, grid)
        """, rules=["pool-global"])
        assert findings == []

    def test_ignores_functions_never_dispatched(self):
        findings = check("""
            CACHE = {}

            def warm(key, value):
                CACHE[key] = value
        """, rules=["pool-global"])
        assert findings == []


class TestPoolUnpicklable:
    def test_flags_lambda_in_dispatch_kwargs(self):
        findings = check("""
            def task(**kw):
                return kw

            def sweep(runner, grid):
                return runner.map(task, grid, reduce=lambda a, b: a + b)
        """, rules=["pool-unpicklable"])
        assert rules_of(findings) == {"pool-unpicklable"}

    def test_accepts_plain_value_arguments(self):
        findings = check("""
            def task(**kw):
                return kw

            def sweep(runner, grid):
                return runner.map(task, grid, jobs=4)
        """, rules=["pool-unpicklable"])
        assert findings == []


class TestMissingHints:
    def test_flags_unannotated_public_function(self):
        findings = check("""
            def compute(x, y):
                \"\"\"Docstring present; hints absent.\"\"\"
                return x + y
        """, rules=["missing-hints"])
        assert rules_of(findings) == {"missing-hints"}

    def test_accepts_fully_annotated_function(self):
        findings = check("""
            def compute(x: float, y: float) -> float:
                \"\"\"Fully annotated.\"\"\"
                return x + y
        """, rules=["missing-hints"])
        assert findings == []

    def test_ignores_private_and_nested_functions(self):
        findings = check("""
            def _helper(x, y):
                return x + y

            def outer() -> int:
                \"\"\"Nested defs are not public API.\"\"\"
                def inner(a, b):
                    return a + b
                return inner(1, 2)
        """, rules=["missing-hints"])
        assert findings == []


class TestMissingDoc:
    def test_flags_undocumented_module_class_function(self):
        findings = check("""
            class Widget:
                pass

            def spin() -> None:
                pass
        """, rules=["missing-doc"])
        assert len(findings) == 3  # module, class, function

    def test_accepts_documented_api(self):
        findings = check("""
            \"\"\"Module docstring.\"\"\"

            class Widget:
                \"\"\"A widget.\"\"\"

            def spin() -> None:
                \"\"\"Spin it.\"\"\"
        """, rules=["missing-doc"])
        assert findings == []

    def test_ignores_dunder_methods(self):
        findings = check("""
            \"\"\"Module docstring.\"\"\"

            class Widget:
                \"\"\"A widget.\"\"\"

                def __init__(self) -> None:
                    self.x = 1

                def __len__(self) -> int:
                    return self.x
        """, rules=["missing-doc"])
        assert findings == []


class TestRuleSelection:
    def test_rule_filter_excludes_other_passes(self):
        findings = check("""
            import heapq

            def schedule(heap, time_ns, handle, idle_us):
                heapq.heappush(heap, (time_ns, handle))
                return time_ns + idle_us
        """, rules=["unit-mix"])
        assert rules_of(findings) == {"unit-mix"}

    def test_all_rules_run_by_default(self):
        findings = check("""
            import heapq

            def schedule(heap, time_ns, handle, idle_us):
                heapq.heappush(heap, (time_ns, handle))
                return time_ns + idle_us
        """)
        assert {"unit-mix", "heap-tiebreak"} <= rules_of(findings)
