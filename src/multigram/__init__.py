"""Multi-granular ngram text classification with attention-based evidence.

Documents are encoded over hierarchical ngram structures (parse tree,
pyramid, or left/right-branching forests) by a shared binary tree-LSTM;
additive attention pools the unit representations into a text vector whose
weights double as extraction-ready evidence.  BiLSTM and per-order CNN
baselines share the same attention/classifier head for like-for-like
comparison, and a fidelity harness quantifies how much label signal the
extracted evidence carries.
"""

from .attention import ModelOutput
from .autodiff import ParamStore, Tape, Tensor, check_gradients
from .data import (
    Corpus,
    Vocab,
    load_checkpoint,
    load_corpus,
    load_embeddings,
    save_checkpoint,
    split_stratified,
)
from .encoders import (
    EncoderOutput,
    TreeLstmParams,
    bilstm_encode,
    cnn_encode,
    encode_bi_forest,
    encode_dag,
)
from .explain import (
    Evidence,
    EvidenceReport,
    extract_evidence,
    fidelity_harness,
    keep_top_words,
    random_subsequence,
    render_highlights,
)
from .model import ModelConfig, TextClassifier, count_parameters
from .structures import (
    NgramDag,
    NgramNode,
    Span,
    build_structure,
    level_schedule,
    ngram_text,
    unfold_tokens,
)
from .synthetic import make_planted_corpus
from .training import (
    Adam,
    DataBundle,
    TrainConfig,
    TrainResult,
    benchmark,
    evaluate,
    prepare_bundle,
    train,
)

__version__ = "0.1.0"
