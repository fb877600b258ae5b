"""Workload applications built on the tenant socket API.

The request/response pair (:mod:`.rpc`) is imported from its module.
"""

from .bulk import BulkReceiver, BulkSender
from .web import WebClient, WebServer

__all__ = [
    "BulkSender",
    "BulkReceiver",
    "WebServer",
    "WebClient",
]
