"""The IOC-free query sets of the ``hunt``, ``live`` and ``sharded`` workloads.

The Figure-4/5 catalogs pin every query to an agent and an indicator, so
they are answered from an index and cost the same at any data size.  A
hunting analyst has no indicator yet: these queries name no ``agentid``,
match subjects and objects by ``%like%``, filter on ``amount``, ask for
the first/last N by time, and join two or three patterns under
``within`` bounds — so scans, joins, projection and every
``EngineOptions`` lever do the work.

Every join keeps one side selective *as the planner's statistics see it*:
the joiner builds the per-identity cross product before it applies the
temporal bound, and the engine refuses more than 2M intermediate rows.
Do not raise that guard to admit a broader query; narrow the query.
"""

from __future__ import annotations

from repro.telemetry.collector import SCENARIO_DATE
from repro.telemetry.enterprise import ATTACKER_IP

_AT = f'(at "{SCENARIO_DATE}")'

#: ``(id, AIQL text)`` in the order one pass runs them.  An odd count on
#: purpose: the pooled median then sits inside one query's distribution
#: instead of between two queries whose gap shifts with the seed.
HUNT_QUERIES: tuple[tuple[str, str], ...] = (
    # -- single pattern, ts-ordered top-N: top-k pushdown + vectorized path
    ("h01-latest-net-writes", f'''{_AT}
proc p write ip i as e1
return p, i, e1.amount sort by e1.ts desc top 20'''),
    ("h02-first-db-reads", f'''{_AT}
proc p read file f["%.mdf"] as e1
return p, f, e1.ts sort by e1.ts top 25'''),
    # -- single pattern, residual amount filter, sort on a non-ts key
    ("h03-largest-exe-writes", f'''{_AT}
amount > 150000
proc p["%.exe"] write file f as e1
return p, f, e1.amount sort by e1.amount desc top 50'''),
    # -- single pattern, %like% on both sides, distinct over a wide scan
    ("h04-service-temp-writes", f'''{_AT}
proc p["%svc%"] write file f["%Temp%"] as e1
return distinct p, f'''),
    ("h05-browser-cache", f'''{_AT}
proc p["%chrome%"] write file f as e1
return distinct f'''),
    ("h06-shell-children", f'''{_AT}
proc p["%cmd%"] start proc c as e1
return distinct p, c'''),
    # -- two-pattern temporal joins
    ("h07-dropper-then-spawn", f'''{_AT}
proc p1 write file f["%.exe"] as e1
proc p2 start proc c as e2
with e1 before e2 within 60 sec
return distinct p1, f, p2, c'''),
    ("h08-staged-archives", f'''{_AT}
proc p["%sqlservr%"] write file f["%nightly_3%"] as e1
proc p write file g["%nightly_5%"] as e2
with e1 before e2 within 10 min
return distinct p, f, g'''),
    # -- three-pattern temporal join
    ("h09-edit-burst", f'''{_AT}
proc p["%winword%"] read file d1 as e1
proc p write file d2["%report_7.docx"] as e2
proc p write file d3["%report_1%"] as e3
with e1 before e2 within 2 min, e2 before e3 within 2 min
return distinct p, d1, d2, d3'''),
    # -- anomaly: sliding-window aggregation over every network write
    ("h10-volume-spike", f'''{_AT}
window = 10 min, step = 5 min
proc p write ip i as evt
return p, sum(evt.amount) as total
group by p
having total > 2 * (total + total[1] + total[2]) / 3'''),
    # -- dependency: forward tracking through a shared file
    ("h11-doc-provenance", f'''{_AT}
forward: proc w["%winword%"] ->[write] file d["%report_1%"]
<-[read] proc r
return distinct w, d, r'''),
)

#: The three cheap ``hunt`` queries an analyst keeps issuing while the
#: ``live`` feed is being ingested (one scan-ordered, one filtered, one
#: ``%like%``) — cheap so the read load stays a fraction of the write load.
LIVE_QUERY_IDS = ("h01-latest-net-writes", "h02-first-db-reads",
                  "h06-shell-children")

#: Eight standing queries: the ``bench_stream.py`` alert-rule mix, phrased
#: against the enterprise feed (selective patterns, a within-chained
#: correlation, a broad residual filter, an anomaly window).
STANDING_QUERIES: tuple[tuple[str, str], ...] = (
    ("s1-backup-then-send",
     'proc p["%sqlservr%"] write file f["%nightly%"] as e1\n'
     'proc p write ip i as e2\n'
     'with e1 before e2 within 30 sec\n'
     'return f, i'),
    ("s2-c2-beacon",
     f'proc p write ip i[dstip = "{ATTACKER_IP}"] as e1 '
     'return distinct p, i'),
    ("s3-large-transfer",
     'amount > 500000\nproc p read || write file f as e1 return f'),
    ("s4-office-audit", 'proc p["winword.exe"] write file f as e1 return f'),
    ("s5-powershell-net", 'proc p["%powershell%"] write ip i as e1 return p'),
    ("s6-shell-spawn", 'proc p start proc c["%cmd.exe"] as e1 return c'),
    ("s7-temp-path",
     'proc p["svchost.exe"] write file f["%tmp_007%"] as e1 return f'),
    ("s8-volume-anomaly",
     'window = 10 min, step = 10 min\n'
     'proc p write ip i as evt\n'
     'return p, sum(evt.amount) as total\n'
     'group by p\n'
     'having total > 2000000'),
)
