"""Synthetic benchmark datasets (paper §5.1) mirroring the paper's evaluation
data: German-Syn, Adult-Syn, Amazon-Syn and Student-Syn, generated from
structural causal models matching the paper's causal graphs.  Each generator
returns a :class:`~repro.datasets.base.SyntheticDataset` bundling the
database, the causal DAG, the ground-truth structural model and a default
``Use`` specification.
"""

from .adult_syn import adult_causal_dag, adult_scm, make_adult_syn
from .amazon_syn import (
    BRANDS,
    CATEGORIES,
    amazon_causal_dag,
    amazon_view_scm,
    make_amazon_syn,
)
from .base import SyntheticDataset
from .german_syn import german_causal_dag, german_scm, make_german_syn
from .registry import DATASET_GENERATORS, available_datasets, make_dataset
from .student_syn import make_student_syn, student_causal_dag, student_view_scm

__all__ = [
    "BRANDS",
    "CATEGORIES",
    "DATASET_GENERATORS",
    "SyntheticDataset",
    "adult_causal_dag",
    "adult_scm",
    "amazon_causal_dag",
    "amazon_view_scm",
    "available_datasets",
    "german_causal_dag",
    "german_scm",
    "make_adult_syn",
    "make_amazon_syn",
    "make_dataset",
    "make_german_syn",
    "make_student_syn",
    "student_causal_dag",
    "student_view_scm",
]
