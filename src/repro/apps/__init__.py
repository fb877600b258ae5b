"""Workload applications built on the tenant socket API."""

from .bulk import BulkReceiver, BulkSender
from .rpc import RpcClient, RpcServer
from .web import WebClient, WebServer

__all__ = [
    "BulkSender",
    "BulkReceiver",
    "RpcServer",
    "RpcClient",
    "WebServer",
    "WebClient",
]
