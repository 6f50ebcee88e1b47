"""Exact analysis and simulation of insertion processes on weighted graphs.

The package computes building counts of words over weighted graphs with
exact rational arithmetic, decides extension consistency and k-dependence
of the induced stationary insertion processes on bounded windows, samples
the processes reproducibly, and extends the machinery to shifts of finite
type through de Bruijn graphs.
"""

from .buildings import (BuildOrder, ConstraintGraph, Word, building_count,
                        building_count_bruteforce, building_weight,
                        bruteforce_sweep, constraint_edge_classes,
                        constraint_graph, positive_words, recurrence_sweep,
                        reduced_count, word_weight)
from .consistency import (ConsistencyCounterexample, ConsistencyNotVerified,
                          ConsistencyReport, check_consistency,
                          check_pair_power_invariance, kite_obstruction,
                          pair_power_sum, uniform_defect)
from .dependence import (DependenceCounterexample, DependenceReport,
                         MinKResult, check_k_dependence, gap_sum,
                         min_k_search, triangle_necessity)
from .fixtures import (fixture_names, fixture_text, load_graph_fixture,
                       load_sft_fixture)
from .graphs import (MultipartiteClassification, UniformWeightReport,
                     WeightedGraph, block_projection, classify_multipartite,
                     complete_graph, cycle_graph, find_kite,
                     graph_from_json_dict, graph_to_json_dict,
                     has_directed_triangle, is_strongly_connected, kite_graph,
                     multipartite_graph, path_graph, regularity,
                     triangles_per_edge, uniform_weight)
from .poly import (Polynomial, reduced_count_pattern, reduced_count_symbolic,
                   short_word_closed_forms)
from .process import (DeadEndError, GapIndependenceResult, Marginal,
                      SampleBatch, empirical_gap_independence, insertion_law,
                      insertion_marginal_gap, marginal, sample_exact,
                      sample_insertion, stationarity_check)
from .sft import (LRReport, ShiftOfFiniteType, check_lr, de_bruijn,
                  de_bruijn_windows, not_finitely_dependent_certificate,
                  project, proper_coloring_windows, sample_sft,
                  sft_from_json_dict, sft_to_json_dict)

__version__ = "1.0.0"
