"""DBN/DNN speaker verification over fixed-dimension utterance embeddings."""

__version__ = "0.1.0"
