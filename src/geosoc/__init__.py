"""Co-located community detection over geo-social networks.

Detects every maximal group of users that is both socially cohesive
(k-core or k-truss) and spatially tight (coverable by a circle of
diameter d, or by a side-d square in the sqrt(2)-approximate mode).
"""

__version__ = "0.1.0"
