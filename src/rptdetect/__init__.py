"""Related-party-transaction guided tax-evasion detection on heterogeneous graphs."""

from .hetgraph import (
    EdgeType,
    HetGraph,
    Schema,
    degree_histogram,
    load_graph,
    load_labels,
    save_graph,
    save_labels,
    validate_labels,
)
from .matcher import (
    NeighborIndex,
    build_neighbor_index,
    enumerate_instances,
    k_order_neighbors,
    metapath_neighbors,
)
from .model import (
    ModelConfig,
    ModelParams,
    forward,
    init_params,
    load_params,
    save_params,
)
from .patterns import BUNDLED_METAPATHS, RptPattern, bundled_patterns, load_patterns
from .stats import evader_centers, evasion_ratio_stats
from .synth import GenConfig, export, generate
from .training import (
    Metrics,
    TrainConfig,
    adam_step,
    evaluate,
    split_dataset,
    timing_sweep,
    train,
    train_downstream_classifier,
)

__version__ = "0.1.0"
